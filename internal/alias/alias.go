// Package alias implements Walker's alias method for weighted random
// sampling, using Vose's O(n) construction. Given n non-negative
// weights, a Table draws index i with probability w_i / Σw in O(1)
// worst-case time per draw.
//
// Both baseline algorithms and the BBST algorithm of the paper rely on
// this structure: once per query an alias table is built over the
// per-point upper bounds µ(r), and each of the t sampling iterations
// performs a single O(1) weighted draw from it.
package alias

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// Table is an immutable alias table over a fixed weight vector.
type Table struct {
	prob  []float64 // probability of keeping column i (scaled to [0,1])
	alias []int32   // fallback index when the coin flip rejects column i
	total float64   // sum of the input weights
}

// ErrNoWeight is returned when the weight vector is empty or sums to
// zero; no distribution can be defined in that case.
var ErrNoWeight = errors.New("alias: weights are empty or sum to zero")

// New builds an alias table from the given weights in O(n) time.
// Negative or NaN weights are rejected.
func New(weights []float64) (*Table, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrNoWeight
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || w != w {
			return nil, fmt.Errorf("alias: weight %d is invalid (%g)", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, ErrNoWeight
	}

	t := &Table{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		total: total,
	}

	// Vose's method: classify scaled weights into "small" (< 1) and
	// "large" (>= 1) worklists, then repeatedly pair one of each.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	scale := float64(n) / total
	for i, w := range weights {
		scaled[i] = w * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Remaining entries should be exactly 1 up to floating error.
	for _, l := range large {
		t.prob[l] = 1
		t.alias[l] = l
	}
	for _, s := range small {
		t.prob[s] = 1
		t.alias[s] = s
	}
	return t, nil
}

// MustNew is New but panics on error; for weights known to be valid.
func MustNew(weights []float64) *Table {
	t, err := New(weights)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of weights the table was built over.
func (t *Table) Len() int { return len(t.prob) }

// Total returns the sum of the input weights.
func (t *Table) Total() float64 { return t.total }

// Sample draws an index with probability proportional to its weight.
func (t *Table) Sample(r *rng.RNG) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// SizeBytes reports the memory footprint of the table, used by the
// memory-usage experiment (Fig. 4).
func (t *Table) SizeBytes() int {
	return len(t.prob)*8 + len(t.alias)*4 + 8
}

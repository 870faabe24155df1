// Package rng provides the deterministic pseudo-random source used by
// every sampling algorithm in this repository.
//
// All experiments in the paper depend on uniform, independent draws;
// to make tests and experiments reproducible the package implements a
// small, allocation-free PCG-XSH-RR 64/32 generator (O'Neill, 2014)
// seeded explicitly, plus a SplitMix64 seed expander so that derived
// streams (one per worker or per phase) are statistically independent.
package rng

import "math"

// splitMix64 advances the given state and returns a well-mixed 64-bit
// value. It is used for seed expansion only.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a PCG-XSH-RR 64/32 pseudo-random generator. The zero value is
// not valid; construct one with New.
type RNG struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded from seed. Two generators created
// with distinct seeds produce (statistically) independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place so that it produces the
// same stream as New(seed), without allocating. Pooled samplers use it
// to hand a recycled generator a fresh independent stream per checkout.
func (r *RNG) Reseed(seed uint64) {
	s := seed
	r.state = splitMix64(&s)
	r.inc = splitMix64(&s) | 1 // stream increment must be odd
	r.next()
}

// Split derives a new generator whose stream is independent of the
// receiver's. The receiver advances, so repeated Split calls yield
// distinct children.
func (r *RNG) Split() *RNG {
	s := uint64(r.next())<<32 | uint64(r.next())
	return New(s)
}

// next produces the next 32 random bits.
func (r *RNG) next() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint32 returns a uniform 32-bit value.
func (r *RNG) Uint32() uint32 { return r.next() }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return uint64(r.next())<<32 | uint64(r.next()) }

// Uint32n returns a uniform value in [0, n). It panics when n == 0.
// The implementation uses Lemire's nearly-divisionless bounded
// rejection so every value is exactly equally likely.
func (r *RNG) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: Uint32n with n == 0")
	}
	x := uint64(r.next()) * uint64(n)
	low := uint32(x)
	if low < n {
		threshold := -n % n
		for low < threshold {
			x = uint64(r.next()) * uint64(n)
			low = uint32(x)
		}
	}
	return uint32(x >> 32)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	if n <= math.MaxUint32 {
		return int(r.Uint32n(uint32(n)))
	}
	// Rarely needed 64-bit path: rejection from the next power of two.
	mask := uint64(1)
	for mask < uint64(n) {
		mask <<= 1
	}
	mask--
	for {
		v := r.Uint64() & mask
		if v < uint64(n) {
			return int(v)
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate using the
// Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p uniformly at random (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

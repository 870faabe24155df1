package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	srj "repro"
)

// checker is the correctness gate applied to every delivered pair.
type checker struct {
	epoch time.Time
	pairs atomic.Int64
	bad   atomic.Int64
	first sync.Once
	what  string // the first failure, written once by first

	mu sync.RWMutex
	// deleted maps the IDs of acknowledged deletes of the churn
	// dataset, per side, to their ack time in ns since epoch.
	deleted [2]map[int32]int64
}

func newChecker() *checker {
	return &checker{epoch: time.Now(), deleted: [2]map[int32]int64{{}, {}}}
}

func (c *checker) fail(format string, args ...any) {
	c.bad.Add(1)
	c.first.Do(func() { c.what = fmt.Sprintf(format, args...) })
}

// window checks that every pair of a draw with half-extent l
// satisfies s ∈ w(r).
func (c *checker) window(batch []srj.Pair, l float64) {
	c.pairs.Add(int64(len(batch)))
	for _, p := range batch {
		if !srj.Window(p.R, l).Contains(p.S) {
			c.fail("pair %v: s outside w(r) for l=%g", p, l)
		}
	}
}

// acked records the deletes of an update the fleet acknowledged. The
// ack time is read under the write lock, so any draw that started
// after it finds the deletes recorded.
func (c *checker) acked(u srj.Update) {
	c.mu.Lock()
	now := time.Since(c.epoch).Nanoseconds()
	for side, ids := range [2][]int32{u.DeleteR, u.DeleteS} {
		for _, id := range ids {
			c.deleted[side][id] = now
		}
	}
	c.mu.Unlock()
}

// notDeleted checks that no pair of a draw that started at start
// carries an ID whose delete was acknowledged before start.
func (c *checker) notDeleted(batch []srj.Pair, start time.Time) {
	started := start.Sub(c.epoch).Nanoseconds()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range batch {
		for side, id := range [2]int32{p.R.ID, p.S.ID} {
			if at, ok := c.deleted[side][id]; ok && at < started {
				c.fail("pair %v: ID %d deleted %v before the draw started", p, id, time.Duration(started-at))
			}
		}
	}
}

// result summarizes the pair checks.
func (c *checker) result() check {
	if bad := c.bad.Load(); bad > 0 {
		return check{"pairs", false, fmt.Sprintf("%d of %d delivered pairs failed; first: %s", bad, c.pairs.Load(), c.what)}
	}
	return check{"pairs", true, fmt.Sprintf("%d delivered pairs, each in its window and none deleted before its draw", c.pairs.Load())}
}

// check is the outcome of one correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// identity draws the same seeded request through the router and
// straight from the key's home backend; the pairs must match exactly.
func identity(ctx context.Context, f *fleet, key srj.EngineKey, seed uint64, when string) check {
	name := "identity " + when
	req := srj.Request{T: 2000, Seed: seed | 1}
	routed, err := f.source(key).Draw(ctx, req)
	if err != nil {
		return check{name, false, "routed draw: " + err.Error()}
	}
	direct, err := f.home(key).Draw(ctx, req)
	if err != nil {
		return check{name, false, "direct draw: " + err.Error()}
	}
	if len(routed.Pairs) != len(direct.Pairs) {
		return check{name, false, fmt.Sprintf("routed %d pairs, direct %d", len(routed.Pairs), len(direct.Pairs))}
	}
	for i := range routed.Pairs {
		if routed.Pairs[i] != direct.Pairs[i] {
			return check{name, false, fmt.Sprintf("pair %d differs: routed %v, direct %v", i, routed.Pairs[i], direct.Pairs[i])}
		}
	}
	return check{name, true, fmt.Sprintf("%s: %d seeded pairs via router == direct from %s", key, len(routed.Pairs), f.router.Locate(key))}
}

// chiSquare draws t samples of the check dataset through the router
// and tests the R-side frequencies against the exact join counts
// |S(w(r))| by brute force. The gate is df + checkAlpha·sqrt(2·df):
// about six standard deviations, so a correct sampler fails it with
// negligible probability on any seed.
func chiSquare(ctx context.Context, f *fleet, ps pointSets, l float64, t int, seed uint64, chk *checker) check {
	key := srj.EngineKey{Dataset: checkKey, L: l, Algorithm: string(srj.BBST)}
	counts := map[int32]float64{}
	total := 0.0
	for _, r := range ps.R {
		w := srj.Window(r, l)
		c := 0.0
		for _, s := range ps.S {
			if w.Contains(s) {
				c++
			}
		}
		counts[r.ID] = c
		total += c
	}
	observed := map[int32]float64{}
	err := f.source(key).DrawFunc(ctx, srj.Request{T: t, Seed: seed | 1}, func(batch []srj.Pair) error {
		chk.window(batch, l)
		for _, p := range batch {
			observed[p.R.ID]++
		}
		return nil
	})
	if err != nil {
		return check{"chi-square", false, err.Error()}
	}
	stat, df := 0.0, -1
	for id, c := range counts {
		if c == 0 {
			if observed[id] > 0 {
				return check{"chi-square", false, fmt.Sprintf("R ID %d has no join partner but was drawn", id)}
			}
			continue
		}
		want := float64(t) * c / total
		d := observed[id] - want
		stat += d * d / want
		df++
	}
	limit := float64(df) + checkAlpha*math.Sqrt(2*float64(df))
	detail := fmt.Sprintf("R-side chi-square %.1f, df %d, limit %.1f (%d samples, |J| = %.0f)", stat, df, limit, t, total)
	return check{"chi-square", df > 0 && stat <= limit, detail}
}

// agreement compares last_applied_update_id for key on every backend,
// which must all equal the number of batches the router acknowledged.
func agreement(ctx context.Context, f *fleet, key srj.EngineKey, want uint64) check {
	var got []uint64
	for _, b := range f.backends {
		st, err := srj.NewClientHTTP(b, f.hc).Stats(ctx)
		if err != nil {
			return check{"agreement", false, err.Error()}
		}
		id := uint64(0)
		for _, info := range st.Stores {
			if info.Key == key {
				id = info.LastAppliedID
			}
		}
		got = append(got, id)
	}
	for _, id := range got {
		if id != want {
			return check{"agreement", false, fmt.Sprintf("backends at last_applied_update_id %v, want %d everywhere", got, want)}
		}
	}
	return check{"agreement", true, fmt.Sprintf("every backend at last_applied_update_id %d", want)}
}

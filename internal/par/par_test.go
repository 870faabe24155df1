package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs sets GOMAXPROCS to n for the test and restores it after.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// visits runs ForEach over n indexes and returns each index's visit
// count and the workers that made calls.
func visits(n, limit int) (counts []int32, workers map[int]bool) {
	counts = make([]int32, n)
	var mu sync.Mutex
	workers = make(map[int]bool)
	ForEach(n, limit, func(w, i int) {
		atomic.AddInt32(&counts[i], 1)
		mu.Lock()
		workers[w] = true
		mu.Unlock()
	})
	return counts, workers
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	withProcs(t, 4)
	for _, n := range []int{0, 1, 63, 64, 65, 100_000} {
		for _, limit := range []int{0, 1, 3} {
			counts, workers := visits(n, limit)
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d limit=%d: index %d visited %d times", n, limit, i, c)
				}
			}
			for w := range workers {
				if w < 0 || w >= Limit(limit) {
					t.Fatalf("n=%d limit=%d: worker %d outside [0, %d)", n, limit, w, Limit(limit))
				}
			}
			if limit == 1 && len(workers) > 1 {
				t.Fatalf("n=%d limit=1: %d workers made calls", n, len(workers))
			}
		}
	}
	if got := busy.Load(); got != 0 {
		t.Fatalf("%d tokens still taken", got)
	}
}

func TestForEachRunsOnCallerWithoutTokens(t *testing.T) {
	withProcs(t, 4)
	k := take(runtime.GOMAXPROCS(0))
	if k != 3 {
		t.Fatalf("took %d of the 3 tokens", k)
	}
	defer busy.Add(-int32(k))
	counts, workers := visits(100_000, 0)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	if len(workers) != 1 || !workers[0] {
		t.Fatalf("workers %v made calls; want the caller (0) alone", workers)
	}
}

func TestForEachReturnsTokens(t *testing.T) {
	withProcs(t, 4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				ForEach(1000, 0, func(_, i int) { total.Add(int64(i)) })
			}
		}()
	}
	wg.Wait()
	if want := int64(3 * 20 * 999 * 1000 / 2); total.Load() != want {
		t.Fatalf("sum of visited indexes %d, want %d", total.Load(), want)
	}
	if got := busy.Load(); got != 0 {
		t.Fatalf("%d tokens still taken after the calls returned", got)
	}
}

func TestForEachRaisesPanicInCaller(t *testing.T) {
	withProcs(t, 4)
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
		if got := busy.Load(); got != 0 {
			t.Fatalf("%d tokens still taken after a panic", got)
		}
	}()
	ForEach(1000, 0, func(_, i int) {
		if i == 777 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned after a panic")
}

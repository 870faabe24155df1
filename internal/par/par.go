// Package par runs the per-cell loops of index construction on every
// core. ForEach hands out blocks of indexes from an atomic counter to
// the calling goroutine, which always works, and to helper goroutines,
// one per token taken from a process-wide pool of GOMAXPROCS−1 tokens.
// Tokens are taken without blocking, so a lone build gets every core,
// concurrent builds share the pool and each falls back towards its
// caller alone, and no call ever waits for another: the CPUs are not
// oversubscribed and nested or concurrent calls cannot deadlock.
//
// Which worker visits which index depends on scheduling. Callers keep
// their output independent of it by writing only the slots of the
// index they are given, and by keeping any scratch state per worker.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxBlock caps the indexes one counter step hands out; smaller inputs
// get smaller blocks, so that every worker gets several and uneven
// cells still balance.
const maxBlock = 64

// busy counts the helper tokens taken from the pool.
var busy atomic.Int32

// Limit returns how many workers a ForEach call with this limit may
// use at most: limit when it is positive, else GOMAXPROCS. Callers size
// per-worker state by it.
func Limit(limit int) int {
	if limit > 0 {
		return limit
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach calls fn(w, i) exactly once for every i in [0, n) and returns
// when every call has. w < Limit(limit) names the worker making the
// call: 0 is the calling goroutine, and calls with equal w never
// overlap. A panic in fn is raised again in the caller once every
// worker has stopped.
func ForEach(n, limit int, fn func(w, i int)) {
	workers := Limit(limit)
	block := max(1, min(maxBlock, n/(8*workers)))
	var next atomic.Int64
	run := func(w int) {
		for {
			lo := int(next.Add(int64(block))) - block
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+block, n); i++ {
				fn(w, i)
			}
		}
	}
	helpers := take(min(workers, (n+block-1)/block) - 1)
	if helpers == 0 {
		run(0)
		return
	}
	var (
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	guard := func(w int) {
		defer func() {
			if p := recover(); p != nil {
				once.Do(func() { panicked = p })
			}
		}()
		run(w)
	}
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func(w int) {
			defer wg.Done()
			defer busy.Add(-1)
			guard(w)
		}(w)
	}
	guard(0)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// take takes up to want tokens from the pool without blocking and
// returns how many it took.
func take(want int) int {
	for want > 0 {
		cur := busy.Load()
		free := int32(runtime.GOMAXPROCS(0)-1) - cur
		if free <= 0 {
			return 0
		}
		k := min(int32(want), free)
		if busy.CompareAndSwap(cur, cur+k) {
			return int(k)
		}
	}
	return 0
}

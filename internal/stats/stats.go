// Package stats provides live-heap measurement for the memory
// experiment (internal/exp).
package stats

import "runtime"

// LiveHeapBytes forces a GC and returns the current live heap size;
// the memory experiment diffs it around structure construction.
func LiveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

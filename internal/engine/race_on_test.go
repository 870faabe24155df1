//go:build race

package engine

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its Puts on purpose, so pooled buffers are not reused reliably.
const raceEnabled = true

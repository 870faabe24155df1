// Suppression-directive cases for the //lint:allow escape hatch,
// exercised through the ctxloop analyzer. The expected diagnostics are
// asserted directly by suppress_test.go (want comments cannot share a
// line with the directive they describe).
package allow

import "context"

type src struct{}

func (src) Next() (int, bool) { return 0, false }

// justified: a directive with a reason on the line above the loop
// suppresses the diagnostic.
func justified(ctx context.Context, s src) {
	//lint:allow ctxloop the caller bounds this drain by wall clock
	for {
		s.Next()
	}
}

// justifiedSameLine: same, with the directive trailing the flagged
// line itself.
func justifiedSameLine(ctx context.Context, s src) {
	for { //lint:allow ctxloop the caller bounds this drain by wall clock
		s.Next()
	}
}

// bare: a directive without a reason suppresses nothing — the loop
// diagnostic survives AND the directive itself is reported.
func bare(ctx context.Context, s src) {
	//lint:allow ctxloop
	for {
		s.Next()
	}
}

// unknown: naming a nonexistent analyzer is reported.
func unknown(ctx context.Context, s src) {
	//lint:allow nosuchanalyzer because reasons
	for {
		if ctx.Err() != nil {
			return
		}
		s.Next()
	}
}

// stale: the loop below is clean, so the directive suppresses nothing
// and is reported as unused.
func stale(ctx context.Context, s src) {
	//lint:allow ctxloop stale justification kept after a refactor
	for {
		if ctx.Err() != nil {
			return
		}
		s.Next()
	}
}

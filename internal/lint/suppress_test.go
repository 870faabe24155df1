package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestSuppressions runs ctxloop over the allow testdata package and
// checks the //lint:allow semantics end to end: a directive with a
// reason silences the diagnostic (same line or line above), a bare
// directive silences nothing and is itself reported, unknown analyzer
// names are reported, and unused directives are reported. Asserted by
// message substring because want comments cannot share a line with
// the directive they describe.
func TestSuppressions(t *testing.T) {
	p := linttest.Load(t, "testdata", "allow")
	diags, err := lint.RunAnalyzers(p.Fset, p.Files, p.Pkg, p.Info, []*lint.Analyzer{lint.CtxLoop})
	if err != nil {
		t.Fatal(err)
	}

	wantSubstrings := []struct {
		analyzer string
		substr   string
	}{
		{"ctxloop", "loop calls Next"},          // bare directive does not suppress
		{"lintdirective", "needs a reason"},     // ...and is reported itself
		{"lintdirective", "unknown analyzer"},   // nosuchanalyzer
		{"lintdirective", "suppresses nothing"}, // stale directive
	}
	if len(diags) != len(wantSubstrings) {
		for _, d := range diags {
			pos := p.Fset.Position(d.Pos)
			t.Logf("got: %s: %s [%s]", pos, d.Message, d.Analyzer)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(wantSubstrings))
	}
	for _, w := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic containing %q", w.analyzer, w.substr)
		}
	}

	// Exactly one loop diagnostic survives (func bare's); the two
	// justified loops stayed suppressed or the count above would
	// already have failed, but make the invariant explicit.
	ctxloops := 0
	for _, d := range diags {
		if d.Analyzer == "ctxloop" {
			ctxloops++
		}
	}
	if ctxloops != 1 {
		t.Errorf("got %d ctxloop diagnostics, want 1 (justified suppressions must hold)", ctxloops)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	srj "repro"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// scale, and checks that every metric BENCHMARK.json names is printed
// with its unit and carried by the result line, that -json parses,
// and that the correctness gate passes.
func TestSmoke(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(smokeScale.workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(smokeScale.workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != smokeScale.workloads[i].name || w.Name != fullScale.workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, fullScale.workloads[i].name)
		}
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": sp.EndToEnd, "1": sp.PerLayer} {
		t.Run("trace="+trace, func(t *testing.T) {
			dir := t.TempDir()
			results := filepath.Join(dir, "results.json")
			var out bytes.Buffer
			args := []string{"-seed", "7", "-seconds", "0.2", "-trace", trace, "-json", results}
			if err := run(context.Background(), args, &out, smokeScale, dir); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			text := out.String()
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("result line: correct %v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
			}
			if len(line.Metrics) != len(want)*len(sp.Workloads) {
				t.Errorf("result line carries %d metrics, want %d", len(line.Metrics), len(want)*len(sp.Workloads))
			}
			for _, w := range sp.Workloads {
				for _, m := range want {
					got, ok := line.Metrics[w.Name+"."+m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: result line has %s = %+v, want unit %s", w.Name, m.Name, got, m.Unit)
					}
				}
			}
			for _, m := range want {
				printed := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\s`)
				if n := len(printed.FindAllString(text, -1)); n != len(sp.Workloads) {
					t.Errorf("%s printed with unit %s %d times, want once per workload", m.Name, m.Unit, n)
				}
			}
			if strings.Contains(text, "FAILED") {
				t.Errorf("a correctness check failed:\n%s", text)
			}
			blob, err := os.ReadFile(results)
			if err != nil {
				t.Fatal(err)
			}
			var res struct{ Workloads []report }
			if err := json.Unmarshal(blob, &res); err != nil {
				t.Fatalf("-json output: %v", err)
			}
			if len(res.Workloads) != len(sp.Workloads) {
				t.Fatalf("-json holds %d workloads, want %d", len(res.Workloads), len(sp.Workloads))
			}
			for _, w := range res.Workloads {
				if !w.Correct || len(w.Checks) < 4 || len(w.Metrics) < len(want) {
					t.Errorf("-json %s: correct %v, %d checks, %d metrics", w.Workload, w.Correct, len(w.Checks), len(w.Metrics))
				}
			}
		})
	}
}

// TestGateFails shows the pair checks are not vacuous: a pair outside
// its window and a pair carrying an acknowledged delete both fail.
func TestGateFails(t *testing.T) {
	c := newChecker()
	c.window([]srj.Pair{{R: srj.Point{ID: 1}, S: srj.Point{ID: 2, X: 5}}}, 1)
	if c.result().OK {
		t.Error("a pair outside its window passed")
	}
	c = newChecker()
	c.acked(srj.Update{DeleteS: []int32{2}})
	c.notDeleted([]srj.Pair{{R: srj.Point{ID: 1}, S: srj.Point{ID: 2}}}, time.Now().Add(time.Millisecond))
	if c.result().OK {
		t.Error("a pair with an ID deleted before its draw passed")
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	srj "repro"
)

// writeInputs generates two point files and returns their paths.
func writeInputs(t *testing.T) (rPath, sPath string) {
	t.Helper()
	dir := t.TempDir()
	rPath = filepath.Join(dir, "r.bin")
	sPath = filepath.Join(dir, "s.bin")
	if err := srj.SavePoints(rPath, srj.MustGenerate("foursquare", 2000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := srj.SavePoints(sPath, srj.MustGenerate("foursquare", 2000, 2)); err != nil {
		t.Fatal(err)
	}
	return rPath, sPath
}

// parseCSV checks output shape and returns the number of lines.
func parseCSV(t *testing.T, out string) int {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return 0
	}
	for _, line := range lines {
		fields := strings.Split(line, ",")
		if len(fields) != 6 {
			t.Fatalf("bad CSV line %q", line)
		}
		for _, f := range fields {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Fatalf("non-numeric field %q in %q", f, line)
			}
		}
	}
	return len(lines)
}

func TestSampleAllAlgorithms(t *testing.T) {
	rPath, sPath := writeInputs(t)
	for _, algo := range srj.Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			var out, errBuf bytes.Buffer
			err := run(context.Background(), []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "100", "-algo", string(algo)}, &out, &errBuf)
			if err != nil {
				t.Fatal(err)
			}
			if n := parseCSV(t, out.String()); n != 100 {
				t.Fatalf("got %d lines", n)
			}
		})
	}
}

func TestSampleStatsFlag(t *testing.T) {
	rPath, sPath := writeInputs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "50", "-stats"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"algorithm", "iterations", "sampling", "Σµ"} {
		if !strings.Contains(errBuf.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, errBuf.String())
		}
	}
}

func TestSampleParallelWorkers(t *testing.T) {
	rPath, sPath := writeInputs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "200", "-workers", "4"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if n := parseCSV(t, out.String()); n != 200 {
		t.Fatalf("got %d lines", n)
	}
}

// TestSampleSeedReproducible: equal seeds reproduce the sample stream.
func TestSampleSeedReproducible(t *testing.T) {
	rPath, sPath := writeInputs(t)
	var first, second, errBuf bytes.Buffer
	args := []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "100", "-seed", "9"}
	for _, out := range []*bytes.Buffer{&first, &second} {
		if err := run(context.Background(), args, out, &errBuf); err != nil {
			t.Fatal(err)
		}
	}
	if first.String() != second.String() {
		t.Fatal("equal seeds must give equal sample streams")
	}
}

func TestSampleErrors(t *testing.T) {
	rPath, sPath := writeInputs(t)
	var out, errBuf bytes.Buffer
	cases := [][]string{
		{},                                       // missing paths
		{"-r", rPath},                            // missing -s
		{"-r", "/missing.bin", "-s", sPath},      // bad R path
		{"-r", rPath, "-s", "/missing.bin"},      // bad S path
		{"-r", rPath, "-s", sPath, "-l", "0"},    // invalid extent
		{"-r", rPath, "-s", sPath, "-algo", "x"}, // unknown algorithm
		{"-r", rPath, "-s", sPath, "-fc"},        // undefined flag
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out, &errBuf); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSampleWithoutReplacementFlag(t *testing.T) {
	rPath, sPath := writeInputs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "100", "-without-replacement"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	seen := map[string]bool{}
	for _, l := range lines {
		f := strings.Split(l, ",")
		key := f[0] + "|" + f[3]
		if seen[key] {
			t.Fatalf("duplicate pair %s with -without-replacement", key)
		}
		seen[key] = true
	}
}

// TestSampleCanceled: a canceled context (the Ctrl-C path) stops the
// draw between batches with ctx.Err, leaving only whole CSV lines.
func TestSampleCanceled(t *testing.T) {
	rPath, sPath := writeInputs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	err := run(ctx, []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "100000"}, &out, &errBuf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := out.String(); s != "" && !strings.HasSuffix(s, "\n") {
		t.Fatal("cancellation left a partial CSV line")
	}
	// The parallel path honors cancellation too.
	err = run(ctx, []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "1000", "-workers", "4"}, &out, &errBuf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workers: err = %v, want context.Canceled", err)
	}
}

// TestSampleNegativeT: a negative -t is refused up front, not
// silently treated as an empty draw.
func TestSampleNegativeT(t *testing.T) {
	rPath, sPath := writeInputs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-r", rPath, "-s", sPath, "-l", "200", "-t", "-5"}, &out, &errBuf); err == nil {
		t.Fatal("negative -t accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("negative -t wrote output: %q", out.String())
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, r := range exp.Runners(exp.DefaultScale(1)) {
		fmt.Fprintln(&want, r.Name)
	}
	if out.String() != want.String() {
		t.Errorf("list:\n%s\nwant every experiment in order:\n%s", out.String(), want.String())
	}
}

func TestRunSelectedExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-base", "1500", "-t", "300", "-exp", "table2,figure9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Error("output missing Table II")
	}
	if !strings.Contains(out.String(), "Figure 9") {
		t.Error("output missing Figure 9")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "tableX"}, &out); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-base", "1500", "-t", "200", "-exp", "table2", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dataset,KDS,BBST") {
		t.Fatalf("csv header missing:\n%s", out.String())
	}
	// A bad format is refused before any experiment runs: with an
	// already-canceled context, a run that reached the experiment
	// loop would answer context.Canceled instead.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var bad bytes.Buffer
	err := run(ctx, []string{"-exp", "table2", "-format", "xml"}, &bad)
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("err = %v, want an unknown format refusal", err)
	}
}

// TestRunCanceled: a canceled context (the Ctrl-C path) stops the
// run between experiments with ctx.Err, not a partial render.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-base", "1500", "-t", "200", "-exp", "table2"}, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

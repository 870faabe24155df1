// Command srjbench reproduces the paper's evaluation: every table and
// figure of Section V, at a configurable scale.
//
// Usage:
//
//	srjbench                      # run everything at the default scale
//	srjbench -exp table3,figure9  # selected experiments only
//	srjbench -base 100000         # larger datasets (castreet=base .. nyc=8*base)
//	srjbench -t 1000000 -l 50     # override samples and window size
//	srjbench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
)

// run executes srjbench with explicit arguments and output so tests
// can drive it directly. Cancelling ctx (main wires it to SIGINT and
// SIGTERM) stops the run cleanly between experiments, never
// mid-write.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("srjbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		base    = fs.Int("base", 50000, "base dataset size; the four datasets use base, 2x, 4x, 8x")
		t       = fs.Int("t", 100000, "number of samples per run (the paper's t, scaled)")
		l       = fs.Float64("l", 100, "window half-extent (the paper's l)")
		seed    = fs.Uint64("seed", 1, "seed for data generation and sampling")
		expList = fs.String("exp", "", "comma-separated experiments to run (default: all)")
		format  = fs.String("format", "table", "output format: table or csv")
		list    = fs.Bool("list", false, "list experiment names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q (table or csv)", *format)
	}

	scale := exp.DefaultScale(*base)
	scale.T = *t
	scale.L = *l
	scale.Seed = *seed
	runners := exp.Runners(scale)
	if *list {
		for _, r := range runners {
			fmt.Fprintln(stdout, r.Name)
		}
		return nil
	}

	var selected []exp.Runner
	if *expList == "" {
		for _, r := range runners {
			if r.Default {
				selected = append(selected, r)
			}
		}
	} else {
		for _, name := range strings.Split(*expList, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(runners, func(r exp.Runner) bool { return r.Name == name })
			if i < 0 {
				names := make([]string, len(runners))
				for j, r := range runners {
					names[j] = r.Name
				}
				return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(names, ", "))
			}
			selected = append(selected, runners[i])
		}
	}
	for _, r := range selected {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		tbl, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		if *format == "csv" {
			fmt.Fprint(stdout, tbl.CSV())
			fmt.Fprintln(stdout)
			continue
		}
		fmt.Fprintln(stdout, tbl.Render())
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "srjbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "srjbench: %v\n", err)
		os.Exit(1)
	}
}

// Command srjsample draws uniform random samples from the spatial
// range join of two point files without computing the join.
//
// Usage:
//
//	srjsample -r r.bin -s s.bin -l 100 -t 1000000 > samples.csv
//	srjsample -r pts.csv -s pts.csv -l 50 -t 1000 -algo kds -stats
//	srjsample -r r.bin -s s.bin -l 100 -t 1000000 -workers 8
//
// Output is CSV: rID,rX,rY,sID,sX,sY — one line per sample.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	srj "repro"
)

func algoNames() string {
	names := make([]string, 0, len(srj.Algorithms()))
	for _, a := range srj.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, ", ")
}

// csvBatch is the draw granularity of the single-worker path: output
// is flushed per batch and the context is checked between batches, so
// Ctrl-C stops the run at a line boundary, never mid-write.
const csvBatch = 8192

// run executes srjsample with explicit arguments and streams so tests
// can drive it directly. Cancelling ctx (main wires it to SIGINT and
// SIGTERM) stops sampling between batches and flushes the lines
// already written.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("srjsample", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rPath   = fs.String("r", "", "path to the R point file (required)")
		sPath   = fs.String("s", "", "path to the S point file (required)")
		l       = fs.Float64("l", 100, "window half-extent: w(r) = [r±l]×[r±l]")
		t       = fs.Int("t", 1000, "number of samples to draw")
		algo    = fs.String("algo", "bbst", "algorithm ("+algoNames()+")")
		seed    = fs.Uint64("seed", 1, "sampling seed")
		noRepl  = fs.Bool("without-replacement", false, "suppress duplicate pairs")
		workers = fs.Int("workers", 1, "parallel sampling workers (with replacement only)")
		stats   = fs.Bool("stats", false, "print phase timings and counters to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rPath == "" || *sPath == "" {
		return fmt.Errorf("-r and -s are required (see -h)")
	}
	// The batched draw loop below would silently treat a negative -t
	// as "draw nothing"; refuse it up front the way the samplers do.
	if *t < 0 {
		return fmt.Errorf("-t must be >= 0, got %d", *t)
	}
	R, err := srj.LoadPoints(*rPath)
	if err != nil {
		return fmt.Errorf("loading R: %w", err)
	}
	S, err := srj.LoadPoints(*sPath)
	if err != nil {
		return fmt.Errorf("loading S: %w", err)
	}
	if _, err := srj.ValidatePoints(R); err != nil {
		return fmt.Errorf("invalid R: %w", err)
	}
	if _, err := srj.ValidatePoints(S); err != nil {
		return fmt.Errorf("invalid S: %w", err)
	}
	opts := &srj.Options{
		Algorithm:          srj.Algorithm(*algo),
		Seed:               *seed,
		WithoutReplacement: *noRepl,
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	writeBatch := func(pairs []srj.Pair) error {
		for _, p := range pairs {
			fmt.Fprintf(w, "%d,%g,%g,%d,%g,%g\n", p.R.ID, p.R.X, p.R.Y, p.S.ID, p.S.X, p.S.Y)
		}
		return w.Flush()
	}
	var sampler srj.Sampler
	if *workers > 1 {
		// The parallel path materializes all samples before writing;
		// cancellation takes effect at the write-batch boundaries.
		pairs, err := srj.SampleParallel(R, S, *l, *t, *workers, opts)
		if err != nil {
			return err
		}
		for off := 0; off < len(pairs); off += csvBatch {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := off + csvBatch
			if end > len(pairs) {
				end = len(pairs)
			}
			if err := writeBatch(pairs[off:end]); err != nil {
				return err
			}
		}
	} else {
		sampler, err = srj.NewSampler(R, S, *l, opts)
		if err != nil {
			return err
		}
		// Draw and emit in batches: constant memory however large -t
		// is, and a context check between batches.
		buf := make([]srj.Pair, csvBatch)
		drawn := 0
		for drawn < *t {
			if err := ctx.Err(); err != nil {
				return err
			}
			batch := buf
			if rem := *t - drawn; rem < len(batch) {
				batch = batch[:rem]
			}
			n, serr := srj.SampleInto(sampler, batch)
			drawn += n
			if err := writeBatch(batch[:n]); err != nil {
				return err
			}
			if serr != nil {
				// Without replacement, exhausting J surfaces as a
				// rejection-budget error once some samples were drawn;
				// emit what exists, as Sample(t) would.
				if drawn > 0 {
					break
				}
				return serr
			}
		}
	}
	if *stats && sampler != nil {
		st := sampler.Stats()
		fmt.Fprintf(stderr, "algorithm      %s\n", sampler.Name())
		fmt.Fprintf(stderr, "n, m           %d, %d\n", len(R), len(S))
		fmt.Fprintf(stderr, "samples        %d (of %d requested)\n", st.Samples, *t)
		fmt.Fprintf(stderr, "iterations     %d\n", st.Iterations)
		fmt.Fprintf(stderr, "preprocess     %v\n", st.PreprocessTime)
		fmt.Fprintf(stderr, "grid mapping   %v\n", st.GridMapTime)
		fmt.Fprintf(stderr, "upper bounding %v\n", st.UpperBoundTime)
		fmt.Fprintf(stderr, "sampling       %v\n", st.SampleTime)
		fmt.Fprintf(stderr, "total          %v\n", st.Total())
		fmt.Fprintf(stderr, "Σµ             %.0f\n", st.MuSum)
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "srjsample: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "srjsample: %v\n", err)
		os.Exit(1)
	}
}

// Flagged and clean draw loops for the ctxloop analyzer.
package ctxloop

import "context"

type source struct{}

func (source) Draw(ctx context.Context, t int) (int, error) { return 0, nil }
func (source) Sample(t int) []int                           { return nil }
func (source) Next() (int, bool)                            { return 0, false }

// drainNoCtx has a ctx but its draw loop never consults one.
func drainNoCtx(ctx context.Context, src source, batches int) {
	for i := 0; i < batches; i++ { // want `loop calls Sample but never consults a context`
		src.Sample(100)
	}
}

// drainRange: range loops are checked the same way.
func drainRange(ctx context.Context, src source, ts []int) {
	for range ts { // want `loop calls Next but never consults a context`
		src.Next()
	}
}

// drainChecked consults ctx.Err() per batch: clean.
func drainChecked(ctx context.Context, src source, batches int) {
	for i := 0; i < batches; i++ {
		if ctx.Err() != nil {
			return
		}
		src.Sample(100)
	}
}

// drainCtxDraw passes ctx into the draw itself: clean (every Source
// implementation checks it per batch).
func drainCtxDraw(ctx context.Context, src source, batches int) {
	for i := 0; i < batches; i++ {
		_, _ = src.Draw(ctx, 100)
	}
}

// drainNoParam has no context parameter, so there is nothing to
// consult: clean by contract (the caller owns cancellation).
func drainNoParam(src source, batches int) {
	for i := 0; i < batches; i++ {
		src.Sample(100)
	}
}

// launcher: a nested function literal owns its own context
// discipline, and is checked independently of its enclosing function.
func launcher(src source) {
	go func(ctx context.Context) {
		for { // want `loop calls Next but never consults a context`
			src.Next()
		}
	}(context.Background())
}

// noDraws loops without sampling: clean, whatever it does with ctx.
func noDraws(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}

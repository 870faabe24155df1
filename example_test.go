package srj_test

import (
	"context"
	"fmt"

	srj "repro"
)

// ExampleNewSampler demonstrates the core workflow: build a sampler
// over two point sets and draw uniform join samples.
func ExampleNewSampler() {
	R := []srj.Point{{X: 10, Y: 10, ID: 0}, {X: 50, Y: 50, ID: 1}}
	S := []srj.Point{{X: 12, Y: 11, ID: 0}, {X: 48, Y: 52, ID: 1}, {X: 90, Y: 90, ID: 2}}

	sampler, err := srj.NewSampler(R, S, 5, &srj.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	pairs, err := sampler.Sample(4)
	if err != nil {
		panic(err)
	}
	for _, p := range pairs {
		fmt.Printf("r#%d pairs with s#%d\n", p.R.ID, p.S.ID)
	}
	// Unordered output:
	// r#0 pairs with s#0
	// r#1 pairs with s#1
	// r#1 pairs with s#1
	// r#1 pairs with s#1
}

// ExampleSampler_Next draws samples progressively (Definition 2
// allows t = ∞): stop whenever enough samples have arrived.
func ExampleSampler_Next() {
	R := srj.MustGenerate("uniform", 1000, 1)
	S := srj.MustGenerate("uniform", 1000, 2)
	sampler, err := srj.NewSampler(R, S, 500, &srj.Options{Seed: 3})
	if err != nil {
		panic(err)
	}
	seen := 0
	for seen < 100 {
		if _, err := sampler.Next(); err != nil {
			panic(err)
		}
		seen++
	}
	fmt.Println(seen, "samples drawn on demand")
	// Output: 100 samples drawn on demand
}

// ExampleEngine_Draw shows the Source API: build the structures once,
// then serve any number of requests — cancellable, optionally seeded
// for reproducibility, optionally allocation-free via Request.Into.
// A srj.Client bound to an engine key serves the identical contract
// over HTTP.
func ExampleEngine_Draw() {
	R := srj.MustGenerate("uniform", 1000, 1)
	S := srj.MustGenerate("uniform", 1000, 2)
	eng, err := srj.NewEngine(R, S, 500, &srj.Options{Seed: 3})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	// Seeded draws are reproducible whatever traffic is interleaved.
	a, err := eng.Draw(ctx, srj.Request{T: 50, Seed: 42})
	if err != nil {
		panic(err)
	}
	if _, err := eng.Draw(ctx, srj.Request{T: 999}); err != nil { // other traffic
		panic(err)
	}
	b, err := eng.Draw(ctx, srj.Request{T: 50, Seed: 42})
	if err != nil {
		panic(err)
	}
	same := a.Count() == b.Count()
	for i := range a.Pairs {
		same = same && a.Pairs[i] == b.Pairs[i]
	}
	fmt.Println("reproducible:", same)

	// Reusing a buffer makes the steady state allocation-free.
	buf := make([]srj.Pair, 100)
	res, err := eng.Draw(ctx, srj.Request{Into: buf})
	if err != nil {
		panic(err)
	}
	fmt.Println("drawn into buffer:", res.Count())
	// Output:
	// reproducible: true
	// drawn into buffer: 100
}

// ExampleJoinSize shows exact join-size computation (plane sweep),
// useful to calibrate how many samples to request.
func ExampleJoinSize() {
	R := []srj.Point{{X: 0, Y: 0}, {X: 100, Y: 100}}
	S := []srj.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 99, Y: 99}}
	fmt.Println(srj.JoinSize(R, S, 5))
	// Output: 3
}

// ExampleEstimateJoinSize estimates |J| from sampling statistics
// alone — no join is executed.
func ExampleEstimateJoinSize() {
	R := srj.MustGenerate("uniform", 2000, 4)
	S := srj.MustGenerate("uniform", 2000, 5)
	const l = 300
	sampler, err := srj.NewSampler(R, S, l, &srj.Options{Algorithm: srj.KDS, Seed: 6})
	if err != nil {
		panic(err)
	}
	if _, err := sampler.Sample(100); err != nil {
		panic(err)
	}
	// KDS counts exactly, so its estimate equals the true size.
	fmt.Println(srj.EstimateJoinSize(sampler) == float64(srj.JoinSize(R, S, l)))
	// Output: true
}

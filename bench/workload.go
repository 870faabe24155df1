package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"

	srj "repro"
)

// workload is one traffic mix against the routed fleet.
type workload struct {
	name    string
	why     string
	n       int     // points per side of the nyc dataset
	l       float64 // window half-extent (keyspread: per key, see keyspreadL)
	clients int     // closed-loop draw clients
	t       int     // samples per draw request
	// tailQ is the reported draw tail percentile: the highest that
	// keeps at least ten draws beyond it in a 10 s window.
	tailQ float64
	// keys > 1 spreads requests over that many engine keys, picked
	// Zipf-style; warmKeys of the most popular are built during set-up.
	keys, warmKeys int
	// budget is each backend's engine MemoryBudget (0: server default).
	budget int64
	// writes adds the churn writer: one fixed-schedule update batch per
	// writeEvery, broadcast by the router to WAL-backed stores.
	writes bool
	// traceOps is the draw count of each pass of a traced run: fixed
	// work, so the traced counts repeat exactly for a seed.
	traceOps int
}

// scale sizes everything a run does. fullScale is the benchmark;
// smokeScale (tests) drives the same code paths in a fraction of a
// second per workload.
type scale struct {
	workloads []workload
	setups    int // set-ups per run; setup_s is their median
	// The chi-square check: a uniform R and S of these sizes, window
	// checkL, checkT samples through the router.
	checkR, checkS, checkT int
	checkL                 float64
	// Layer probes of a traced run: samples per sampling probe, update
	// batches per write probe, t=1 draws for engine.t1_us.
	probeT, probeBatches, t1Draws int
	// The host-speed kernels of an untraced run (see hostSpeed): the
	// chase's working set in int32 slots and the length of a burst.
	cycleLen  int
	hostBurst time.Duration
}

const (
	zipfS      = 1.1                   // keyspread popularity exponent
	applyTailQ = 0.95                  // churn apply tail: 10 of a 10 s window's 200 batches beyond
	writeEvery = 50 * time.Millisecond // churn writer period
	batchOps   = 8                     // churn inserts, and deletes, per side per batch
	checkAlpha = 6                     // chi-square gate: df + checkAlpha·sqrt(2·df)
	bulkKey    = "nyc"                 // dataset name of the workload's points
	checkKey   = "check"               // dataset name of the chi-square points
	probeSeed  = 0x5eed                // stream of the probes' seeds
	mib        = 1 << 20
)

var fullScale = scale{
	workloads: []workload{
		{
			name:     "bulk",
			why:      "large draws: the core trial loop and the per-pair wire cost do nearly all the work",
			n:        200_000,
			l:        100,
			clients:  2,
			t:        10_000,
			tailQ:    0.975,
			traceOps: 160,
		},
		{
			name:     "interactive",
			why:      "tiny draws: the two HTTP hops, router, handler, registry hit and clone checkout dominate",
			n:        200_000,
			l:        100,
			clients:  2,
			t:        100,
			tailQ:    0.999,
			traceOps: 12_000,
		},
		{
			name:     "keyspread",
			why:      "64 Zipf-picked keys over a cache holding about 20 engines: registry misses and engine builds dominate",
			n:        25_000,
			clients:  1,
			t:        1000,
			tailQ:    0.95,
			keys:     64,
			warmKeys: 16,
			budget:   64 << 20,
			traceOps: 160,
		},
		{
			name:     "churn",
			why:      "a fixed-schedule writer beside a reader: Store.Apply, the WAL, router broadcast and mutable draws",
			n:        100_000,
			l:        100,
			clients:  1,
			t:        1000,
			tailQ:    0.98,
			writes:   true,
			traceOps: 500,
		},
	},
	setups:       3,
	checkR:       300,
	checkS:       3000,
	checkT:       60_000,
	checkL:       500,
	probeT:       200_000,
	probeBatches: 100,
	t1Draws:      2000,
	cycleLen:     16 << 20, // 64 MiB, about as large as the bulk fleet's heap
	hostBurst:    100 * time.Millisecond,
}

var smokeScale = scale{
	workloads: []workload{
		{name: "bulk", n: 3000, l: 300, clients: 2, t: 2000, tailQ: 0.95, traceOps: 8},
		{name: "interactive", n: 3000, l: 300, clients: 2, t: 10, tailQ: 0.99, traceOps: 40},
		{name: "keyspread", n: 2000, clients: 1, t: 50, tailQ: 0.90, keys: 12, warmKeys: 2, budget: 1 << 20, traceOps: 16},
		{name: "churn", n: 2000, l: 300, clients: 1, t: 50, tailQ: 0.98, writes: true, traceOps: 20},
	},
	setups:       2,
	checkR:       60,
	checkS:       600,
	checkT:       6000,
	checkL:       1200,
	probeT:       2000,
	probeBatches: 4,
	t1Draws:      20,
	cycleLen:     1 << 16,
	hostBurst:    time.Millisecond,
}

// pointSets is one named dataset the fleet's resolver serves.
type pointSets struct{ R, S []srj.Point }

// inputs is everything a run feeds the fleet, derived from the seed.
type inputs struct {
	seed uint64
	data map[string]pointSets
}

// mix derives independent 64-bit seeds from the run seed (splitmix64).
func mix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// makeInputs derives the points from the seed. R is a random half
// (srj.SplitRS) of a fixed nyc pool of 2n points, S a random half of a
// second fixed pool, so R and S keep the distinct hotspot layouts of
// srj.BuiltinDatasets while the seed picks the points. Generating the
// pools from the seed instead moved the hotspots, and with them the
// sampler's acceptance and every throughput metric, by several percent
// from seed to seed.
func makeInputs(w workload, sc scale, seed uint64) *inputs {
	R, _ := srj.SplitRS(srj.MustGenerate("nyc", 2*w.n, 1), 0.5, mix(seed, 1))
	_, S := srj.SplitRS(srj.MustGenerate("nyc", 2*w.n, 2), 0.5, mix(seed, 2))
	return &inputs{seed: seed, data: map[string]pointSets{
		bulkKey: {R: R, S: S},
		checkKey: {
			R: srj.MustGenerate("uniform", sc.checkR, mix(seed, 3)),
			S: srj.MustGenerate("uniform", sc.checkS, mix(seed, 4)),
		},
	}}
}

// keyspreadL gives popularity rank k its window half-extent: 64
// distinct values over [50, 200], assigned by a fixed stride so that
// popular keys mix small and large windows. It does not depend on the
// seed: a seed that made the popular keys the expensive ones would
// turn a throughput comparison into a comparison of key assignments.
func keyspreadL(k, keys int) float64 {
	return 50 + 150*float64((k*29)%keys)/float64(keys-1)
}

// keySeq is the keyspread request sequence. Key k is requested with
// probability proportional to (k+1)^-zipfS, block by block: each block
// of about blockLen requests holds every key its expected number of
// times (fractions carry between blocks from a seeded phase), shuffled
// by a seeded RNG. The frequencies are Zipf's at any length and the
// order is random, but the hit ratio spreads far less from seed to
// seed than with independent picks.
type keySeq struct {
	mu    sync.Mutex
	rng   *rand.Rand
	share []float64 // expected requests per block, per key
	phase []float64
	block int
	seq   []int
}

const blockLen = 256

func newKeySeq(keys int, seed uint64) *keySeq {
	rng := rand.New(rand.NewPCG(mix(seed, 5), mix(seed, 6)))
	s := &keySeq{rng: rng, share: make([]float64, keys), phase: make([]float64, keys)}
	total := 0.0
	for k := range s.share {
		s.share[k] = math.Pow(float64(k+1), -zipfS)
		total += s.share[k]
		s.phase[k] = rng.Float64()
	}
	for k := range s.share {
		s.share[k] *= blockLen / total
	}
	return s
}

// at returns the key of request i.
func (s *keySeq) at(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.seq) <= i {
		j := float64(s.block)
		start := len(s.seq)
		for k, p := range s.share {
			for c := math.Floor((j+1)*p+s.phase[k]) - math.Floor(j*p+s.phase[k]); c > 0; c-- {
				s.seq = append(s.seq, k)
			}
		}
		b := s.seq[start:]
		s.rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		s.block++
	}
	return s.seq[i]
}

// churnGen makes the churn writer's update batches: per side, batchOps
// deletes of random live points and batchOps inserts of fresh IDs next
// to random live points, so the dataset keeps its size and density.
// Inserted IDs are never reused, so a deleted ID stays deleted.
type churnGen struct {
	rng    *rand.Rand
	l      float64
	live   [2][]srj.Point
	nextID [2]int32
}

func newChurnGen(ps pointSets, l float64, seed uint64) *churnGen {
	g := &churnGen{rng: rand.New(rand.NewPCG(mix(seed, 7), mix(seed, 8))), l: l}
	for side, pts := range [2][]srj.Point{ps.R, ps.S} {
		g.live[side] = append([]srj.Point(nil), pts...)
		for _, p := range pts {
			if p.ID >= g.nextID[side] {
				g.nextID[side] = p.ID + 1
			}
		}
	}
	return g
}

func (g *churnGen) batch() srj.Update {
	var ins [2][]srj.Point
	var del [2][]int32
	for side := range g.live {
		live := g.live[side]
		for i := 0; i < batchOps; i++ {
			j := g.rng.IntN(len(live))
			del[side] = append(del[side], live[j].ID)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < batchOps; i++ {
			near := live[g.rng.IntN(len(live))]
			p := srj.Point{
				ID: g.nextID[side],
				X:  math.Min(math.Max(near.X+(g.rng.Float64()-0.5)*g.l, 0), 10000),
				Y:  math.Min(math.Max(near.Y+(g.rng.Float64()-0.5)*g.l, 0), 10000),
			}
			g.nextID[side]++
			ins[side] = append(ins[side], p)
			live = append(live, p)
		}
		g.live[side] = live
	}
	return srj.Update{InsertR: ins[0], InsertS: ins[1], DeleteR: del[0], DeleteS: del[1]}
}

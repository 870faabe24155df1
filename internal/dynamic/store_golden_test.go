package dynamic

// Byte-identity pins for the store's write path. Seeded draws must not
// change when the store's internals are rewritten, and stores fed the
// same sequenced records — live, or recovered through Replay — must
// agree byte for byte at every generation.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/rng"
)

// goldenStoreDigest is storeScriptDigest's value for the script below.
// A change means seeded store draws changed. Its frozen draws (the
// generation-0 and post-Compact ones) were recorded with a trial that
// picks the direction by a cumulative scan of r's count record and
// draws cases 1–2 by one Intn over the cached count; its mutable draws
// with the slot-tree trial; both over balanced BBST buckets.
const goldenStoreDigest uint64 = 0x887ccf9cf30d078

// storeScript generates deterministic mixed batches over a model of
// the live sets: each batch deletes del random live points per side
// and inserts ins fresh ones per side.
type storeScript struct {
	r      *rng.RNG
	R, S   []geom.Point
	nextID int32
}

func (sc *storeScript) batch(ins, del int) Update {
	var u Update
	pick := func(live []geom.Point) ([]geom.Point, int32) {
		i := sc.r.Intn(len(live))
		id := live[i].ID
		live[i] = live[len(live)-1]
		return live[:len(live)-1], id
	}
	for i := 0; i < del && len(sc.R) > 0; i++ {
		var id int32
		sc.R, id = pick(sc.R)
		u.DeleteR = append(u.DeleteR, id)
	}
	for i := 0; i < del && len(sc.S) > 0; i++ {
		var id int32
		sc.S, id = pick(sc.S)
		u.DeleteS = append(u.DeleteS, id)
	}
	fresh := func() geom.Point {
		sc.nextID++
		return geom.Point{ID: sc.nextID, X: sc.r.Float64() * dataset.Domain, Y: sc.r.Float64() * dataset.Domain}
	}
	for i := 0; i < ins; i++ {
		p := fresh()
		u.InsertR = append(u.InsertR, p)
		sc.R = append(sc.R, p)
		q := fresh()
		u.InsertS = append(u.InsertS, q)
		sc.S = append(sc.S, q)
	}
	return u
}

func newStoreScript(R, S []geom.Point, seed uint64) *storeScript {
	return &storeScript{
		r:      rng.New(seed),
		R:      append([]geom.Point(nil), R...),
		S:      append([]geom.Point(nil), S...),
		nextID: 100_000,
	}
}

// drawDigest folds a seeded draw and the generation it was served at
// into h.
func drawDigest(t *testing.T, st *Store, seed uint64, put func(uint64)) {
	t.Helper()
	res, err := st.Draw(context.Background(), engine.Request{T: 300, Seed: seed})
	if err != nil {
		t.Fatalf("seeded draw at generation %d: %v", st.Generation(), err)
	}
	put(st.Generation())
	for _, p := range res.Pairs {
		put(uint64(uint32(p.R.ID))<<32 | uint64(uint32(p.S.ID)))
		put(math.Float64bits(p.R.X))
		put(math.Float64bits(p.S.Y))
	}
}

// storeScriptDigest runs NewStore → 40 mixed batches (with one Compact
// halfway) and hashes a seeded draw at every generation. The script
// keeps both sides near their bulk-built sizes, so the rebase hatch
// never trips and the run is deterministic.
func storeScriptDigest(t *testing.T) uint64 {
	R, S := dataset.Uniform(400, 41), dataset.Uniform(400, 42)
	l := 400.0
	st, err := NewStore(R, S, testConfig(l, 19))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ctx := context.Background()
	sc := newStoreScript(R, S, 5)
	drawDigest(t, st, 1, put)
	for b := 0; b < 40; b++ {
		if _, err := st.Apply(ctx, sc.batch(1+b%4, 1+(b+2)%4)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		drawDigest(t, st, uint64(100+b), put)
		if b == 19 {
			if err := st.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			drawDigest(t, st, 7, put)
		}
	}
	if got := st.Rebuilds(); got != 1 {
		t.Fatalf("Rebuilds = %d, want only the explicit Compact", got)
	}
	return h.Sum64()
}

// TestStoreGoldenDigest holds seeded store draws byte-identical across
// rewrites of the store's write path.
func TestStoreGoldenDigest(t *testing.T) {
	if got := storeScriptDigest(t); got != goldenStoreDigest {
		t.Fatalf("store draw digest %#x, golden %#x — seeded store draws changed", got, goldenStoreDigest)
	}
}

// TestStoreReplicasAgreeAcrossRebase: two live stores and a store
// recovering record by record through Replay run one script whose
// middle batch trips the rebase hatch. Every batch must leave them at
// equal generations with byte-identical seeded draws, and a store
// replaying the whole log in one call must land on the same state.
func TestStoreReplicasAgreeAcrossRebase(t *testing.T) {
	R, S := dataset.Uniform(300, 51), dataset.Uniform(300, 52)
	l := 500.0
	mk := func() *Store {
		st, err := NewStore(R, S, testConfig(l, 29))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b, c := mk(), mk(), mk()
	ctx := context.Background()
	sc := newStoreScript(R, S, 8)
	seeded := func(st *Store, seed uint64) []geom.Pair {
		t.Helper()
		res, err := st.Draw(ctx, engine.Request{T: 200, Seed: seed})
		if err != nil {
			t.Fatalf("seeded draw at generation %d: %v", st.Generation(), err)
		}
		return res.Pairs
	}
	agree := func(step int, stores ...*Store) {
		t.Helper()
		want := seeded(stores[0], uint64(step)+1)
		for i, st := range stores[1:] {
			if st.Generation() != stores[0].Generation() {
				t.Fatalf("step %d: store %d at generation %d, want %d", step, i+1, st.Generation(), stores[0].Generation())
			}
			got := seeded(st, uint64(step)+1)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("step %d: store %d diverged at pair %d: %v vs %v", step, i+1, j, got[j], want[j])
				}
			}
		}
	}
	var log []SeqUpdate
	for step := 0; step < 30; step++ {
		u := sc.batch(2, 2)
		if step == 15 {
			// Grow S past 8x its bulk-built size in one batch.
			for i := 0; i <= 8*len(S); i++ {
				u.InsertS = append(u.InsertS, geom.Point{ID: int32(500_000 + i), X: sc.r.Float64() * dataset.Domain, Y: sc.r.Float64() * dataset.Domain})
			}
		}
		for _, st := range []*Store{a, b} {
			if _, err := st.Apply(ctx, u); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		rec := SeqUpdate{ID: uint64(step) + 1, U: u}
		log = append(log, rec)
		if err := c.Replay([]SeqUpdate{rec}); err != nil {
			t.Fatalf("step %d: replay: %v", step, err)
		}
		agree(step, a, b, c)
	}
	if a.Rebuilds() != 1 || c.Rebuilds() != 1 {
		t.Fatalf("Rebuilds = %d live, %d replayed, want the hatch's one each", a.Rebuilds(), c.Rebuilds())
	}
	d := mk()
	if err := d.Replay(log); err != nil {
		t.Fatal(err)
	}
	if d.LastApplied() != a.LastApplied() {
		t.Fatalf("bulk replay last applied %d, live %d", d.LastApplied(), a.LastApplied())
	}
	agree(len(log), a, d)
}

package dynamic

// Tests pinning the in-place maintenance path: steady churn must be
// absorbed in place, size accounting must charge the shared base
// exactly once across resident generations, growth far past the
// bulk-built size must stay in place too, the snapshot cadence must
// count operations, and a large shrink must give back the slots it
// frees.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// countingPersister records write-ahead traffic — the store-level view
// of the durability contract, with no real log underneath.
type countingPersister struct {
	mu           sync.Mutex
	appends      uint64
	snapshots    uint64
	lastSnapID   uint64
	lastR, lastS int
}

func (p *countingPersister) Append(id uint64, u Update) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appends++
	return nil
}

func (p *countingPersister) Snapshot(gen, lastID uint64, R, S []geom.Point) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snapshots++
	p.lastSnapID = lastID
	p.lastR, p.lastS = len(R), len(S)
	return nil
}

func (p *countingPersister) PersistStats() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PersistStats{Appends: p.appends, Snapshots: p.snapshots, LastSnapshotID: p.lastSnapID}
}

// TestStoreInPlaceSnapshotCadence: with the threshold rebuild retired,
// the in-place path must still snapshot on its own cadence — otherwise
// the write-ahead log of a steadily-churning store grows forever.
func TestStoreInPlaceSnapshotCadence(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	p := &countingPersister{}
	cfg := testConfig(l, 23)
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.SetPersister(p)
	ctx := context.Background()

	const rounds = 100
	for i := 0; i < rounds; i++ {
		id := int32(4000 + i)
		u := Update{InsertS: []geom.Point{{ID: id, X: float64(i), Y: -float64(i)}}}
		if i >= 2 {
			u.DeleteS = []int32{int32(4000 + i - 2)}
		}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if err := st.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	if p.appends != rounds {
		t.Errorf("appends = %d, want %d", p.appends, rounds)
	}
	// 100 records over ~120 live points at the default 0.25 fraction:
	// the cadence must have fired more than once, and the latest
	// snapshot must cover a recently-applied ID with the live sets.
	if p.snapshots < 2 {
		t.Errorf("snapshots = %d under sustained churn, want >= 2", p.snapshots)
	}
	if p.lastSnapID == 0 || p.lastSnapID > uint64(rounds) {
		t.Errorf("last snapshot covers ID %d, want in (0, %d]", p.lastSnapID, rounds)
	}
	if p.lastR != len(R) || p.lastS == 0 {
		t.Errorf("snapshot sets %d/%d points, want %d live R", p.lastR, p.lastS, len(R))
	}
	p.mu.Unlock()

	// The cadence counts operations, not records: 20 batches of up to
	// 16 ops over ~120 live points must snapshot repeatedly, though
	// the record count alone never reaches a quarter of the live set.
	p2 := &countingPersister{}
	st2, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetPersister(p2)
	const batches = 20
	for i := 0; i < batches; i++ {
		var u Update
		for j := 0; j < 8; j++ {
			id := int32(5000 + 8*i + j)
			u.InsertS = append(u.InsertS, geom.Point{ID: id, X: float64(id % 97), Y: -float64(id % 89)})
			if i > 0 {
				u.DeleteS = append(u.DeleteS, id-8)
			}
		}
		if _, err := st2.Apply(ctx, u); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := st2.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	p2.mu.Lock()
	defer p2.mu.Unlock()
	if p2.appends != batches {
		t.Errorf("appends = %d, want %d", p2.appends, batches)
	}
	if p2.snapshots < 2 {
		t.Errorf("snapshots = %d after %d ops in %d multi-op batches, want >= 2", p2.snapshots, 8*(2*batches-1), batches)
	}
}

// TestStoreInPlaceSteadyChurn is the tentpole's acceptance test at the
// store level: a long insert/delete churn with roughly constant
// cardinality is absorbed entirely in place — every op counted by
// InPlaceOps — and the store still serves exactly the current join
// with valid bucket invariants.
func TestStoreInPlaceSteadyChurn(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	st, err := NewStore(R, S, testConfig(l, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := &currentSets{R: R, S: S}

	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen(400, 99) // coordinate donor for inserted points

	const rounds = 150
	wantOps := 0
	for i := 0; i < rounds; i++ {
		id := int32(1000 + i)
		d := fresh[i%len(fresh)]
		u := Update{
			InsertR: []geom.Point{{ID: id, X: d.X, Y: d.Y}},
			InsertS: []geom.Point{{ID: id, X: d.Y, Y: d.X}},
		}
		if i >= 3 {
			// Delete an earlier insert on each side: cardinality stays
			// flat, so the rebase hatch must never trip.
			u.DeleteR = []int32{int32(1000 + i - 3)}
			u.DeleteS = []int32{int32(1000 + i - 3)}
		}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		model.apply(u)
		wantOps += u.Ops()
	}

	if got := st.InPlaceOps(); got != uint64(wantOps) {
		t.Errorf("InPlaceOps = %d, want %d", got, wantOps)
	}
	checkIndex(t, st)
	checkSupport(t, drawAll(t, st, 4000), joinSet(model.R, model.S, l))
}

// TestStoreSizeAccountingAcrossGenerations is the regression test for
// the budget double-count: a derived generation shares the previous
// view's base structures, so the store's footprint after an update
// still covers the base once, not once per generation.
func TestStoreSizeAccountingAcrossGenerations(t *testing.T) {
	t.Run("inplace", testStoreSizeAccountingAcrossGenerations)
}

func testStoreSizeAccountingAcrossGenerations(t *testing.T) {
	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	// A base large enough that any re-charge of it dwarfs a 2-point
	// delta, whatever the per-structure constants.
	R, S := gen(2000, 31), gen(2000, 32)
	l := 400.0
	st, err := NewStore(R, S, testConfig(l, 9))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, e0, err := st.ViewEngine()
	if err != nil {
		t.Fatal(err)
	}
	base := e0.SizeBytes()
	if base <= 0 {
		t.Fatalf("generation-0 engine SizeBytes = %d, want > 0", base)
	}

	u := Update{
		InsertR: []geom.Point{{ID: 50_000, X: 1, Y: 2}},
		InsertS: []geom.Point{{ID: 50_000, X: 3, Y: 4}},
	}
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	// The store's own footprint still covers the base exactly once:
	// at least the base, nowhere near two of them.
	if got := st.SizeBytes(); got < base/2 || got >= 2*base {
		t.Errorf("Store.SizeBytes = %d, want about one base (%d)", got, base)
	}
}

// TestStoreInPlaceGrowth grows S more than 10× past its bulk-built
// size, one point per batch: every batch stays in place, and the store
// serves the grown join.
func TestStoreInPlaceGrowth(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	st, err := NewStore(R, S, testConfig(l, 13))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := &currentSets{R: R, S: S}

	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen(700, 77)
	for i, p := range fresh {
		u := Update{InsertS: []geom.Point{{ID: int32(2000 + i), X: p.X, Y: p.Y}}}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		model.apply(u)
	}
	checkIndex(t, st)
	checkSupport(t, drawAll(t, st, 4000), joinSet(model.R, model.S, l))
}

// TestStoreShrinkRepacksInPlace: a batch that deletes 1,800 of 2,000
// R points leaves more dead slots than live ones, so Apply repacks the
// R side and the footprint falls to what a fresh store over the live
// points reports. The repacked index passes its invariants, serves the
// live join, and takes further updates in place.
func TestStoreShrinkRepacksInPlace(t *testing.T) {
	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	R, S := gen(2000, 31), gen(2000, 32)
	l := 400.0
	st, err := NewStore(R, S, testConfig(l, 17))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := &currentSets{R: R, S: S}

	var u Update
	for _, p := range R[:1800] {
		u.DeleteR = append(u.DeleteR, p.ID)
	}
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	model.apply(u)
	fresh, err := NewStore(model.R, model.S, testConfig(l, 17))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.SizeBytes(), fresh.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d after deleting 1800 of 2000 R points, a fresh store over the live points %d", got, want)
	}
	checkIndex(t, st)
	checkSupport(t, drawAll(t, st, 3000), joinSet(model.R, model.S, l))

	// The repacked index takes updates in place.
	u2 := Update{
		InsertR: []geom.Point{{ID: 9000, X: S[5].X, Y: S[5].Y}},
		InsertS: []geom.Point{{ID: 9001, X: R[1900].X, Y: R[1900].Y}},
		DeleteR: []int32{R[1950].ID},
	}
	if _, err := st.Apply(ctx, u2); err != nil {
		t.Fatal(err)
	}
	model.apply(u2)
	if got, want := st.InPlaceOps(), uint64(u.Ops()+u2.Ops()); got != want {
		t.Errorf("InPlaceOps = %d, want %d", got, want)
	}
	checkIndex(t, st)
	checkSupport(t, drawAll(t, st, 3000), joinSet(model.R, model.S, l))
}

package srj_test

// Crash-recovery at the server level: a Server opened over a DataDir
// must come back from close-and-reopen serving exactly the state its
// write-ahead log acknowledged — deletes stay deleted, inserts stay
// present, the update sequence resumes where it stopped — both on the
// pure log-replay path and on the snapshot-plus-tail path the
// snapshot cadence leaves behind.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	srj "repro"
	"repro/srjtest"
)

// openRecoverable starts an in-process server over dir with the given
// resolver, fronted by an httptest server. The returned stop function
// closes the HTTP listener and then the server (syncing the WAL), so
// the directory can be reopened.
func openRecoverable(t *testing.T, dir string, R, S []srj.Point) (*srj.Client, func()) {
	t.Helper()
	srv, err := srj.NewServer(&srj.ServerOptions{
		Datasets: func(name string) ([]srj.Point, []srj.Point, error) {
			return R, S, nil
		},
		MaxT:    200_000,
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("closing server: %v", err)
		}
	}
	t.Cleanup(stop)
	return srj.NewClientHTTP(ts.URL, confTransport(t)), stop
}

// lastApplied reads the store's last applied update ID for key from
// /v1/stats.
func lastApplied(t *testing.T, cl *srj.Client, key srj.EngineKey) uint64 {
	t.Helper()
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range stats.Stores {
		if info.Key.Dataset == key.Dataset {
			return info.LastAppliedID
		}
	}
	t.Fatalf("no store for %s in stats", key.Dataset)
	return 0
}

func TestServerRecoversFromLogReplay(t *testing.T) {
	R, S, l := srjtest.Data()
	dir := t.TempDir()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	victim := R[2].ID

	cl, stop := openRecoverable(t, dir, R, S)
	bound := cl.Bind(key)
	// A peer fed the same updates and never restarted.
	peerCl, _ := openRecoverable(t, t.TempDir(), R, S)
	peer := peerCl.Bind(key)
	// Three acknowledged updates, kept far below the snapshot cadence
	// so recovery exercises pure log replay (no snapshot exists yet).
	for _, u := range []srj.Update{
		{InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}}, InsertS: []srj.Point{{ID: 4001, X: 9001, Y: 9001}}},
		{DeleteR: []int32{victim}},
		{InsertS: []srj.Point{{ID: 4002, X: 8999, Y: 9000}}},
	} {
		for _, b := range []*srj.Client{bound, peer} {
			if _, err := b.Apply(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := lastApplied(t, cl, key); got != 3 {
		t.Fatalf("last applied %d before restart, want 3", got)
	}
	stop()
	// Shutdown writes no snapshot: it never flattens an updated store.
	if snaps, err := filepath.Glob(filepath.Join(dir, "*", "snap-*.srs")); err != nil || len(snaps) != 0 {
		t.Fatalf("snapshots after shutdown: %v (%v), want none", snaps, err)
	}

	// Reopen the same directory: the resolver still hands out the seed
	// data, but the store must resume from the log, not from scratch.
	cl2, _ := openRecoverable(t, dir, R, S)
	if got := lastApplied(t, cl2, key); got != 3 {
		t.Fatalf("last applied %d after restart, want 3", got)
	}
	bound2 := cl2.Bind(key)
	// Log replay repeats the peer's build history batch for batch, so
	// seeded draws match the peer's byte for byte.
	for _, seed := range []uint64{1, 42} {
		if i := firstDifference(t, bound2, peer, seed); i >= 0 {
			t.Fatalf("seed %d: the replayed shard's draws differ from its peer's from sample %d", seed, i)
		}
	}
	res, err := bound2.Draw(ctx, srj.Request{T: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	sawInsert := false
	for _, p := range res.Pairs {
		if p.R.ID == victim {
			t.Fatalf("deleted point %d resurrected by restart", victim)
		}
		if p.R.ID == 4000 && (p.S.ID == 4001 || p.S.ID == 4002) {
			sawInsert = true
		}
	}
	if !sawInsert {
		t.Fatal("inserted pair lost across restart")
	}
	// The sequence resumes exactly where it stopped.
	if _, err := bound2.Apply(ctx, srj.Update{DeleteS: []int32{4002}}); err != nil {
		t.Fatal(err)
	}
	if got := lastApplied(t, cl2, key); got != 4 {
		t.Fatalf("last applied %d after post-restart update, want 4", got)
	}
}

// firstDifference draws 2000 samples under seed from a and from b and
// returns the index of the first pair that differs, -1 when none does.
func firstDifference(t *testing.T, a, b *srj.Client, seed uint64) int {
	t.Helper()
	var draws [2][]srj.Pair
	for i, c := range []*srj.Client{a, b} {
		res, err := c.Draw(context.Background(), srj.Request{T: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		draws[i] = res.Pairs
	}
	if len(draws[0]) != len(draws[1]) {
		t.Fatalf("seed %d: drew %d and %d pairs", seed, len(draws[0]), len(draws[1]))
	}
	for i := range draws[0] {
		if draws[0][i] != draws[1][i] {
			return i
		}
	}
	return -1
}

// waitSnapshot waits until the store for key reports a snapshot.
func waitSnapshot(t *testing.T, cl *srj.Client, key srj.EngineKey) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range stats.Stores {
			if info.Key.Dataset == key.Dataset && info.LastSnapshotID > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared within 10s of crossing the snapshot cadence")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerSnapshotRecoveryDivergesFromPeer pins a known gap (ROADMAP
// item 4): a shard restarted after a cadence snapshot serves the same
// live join as its never-restarted peer, but not the same seeded bytes.
// The snapshot flattens the in-place view into point lists and recovery
// bulk-builds a base over them, while the peer keeps serving the index
// its batches edited. When recovery replays the same build history,
// this test fails and should assert byte identity instead.
func TestServerSnapshotRecoveryDivergesFromPeer(t *testing.T) {
	R, S, l := srjtest.Data()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	dir := t.TempDir()
	cl, stop := openRecoverable(t, dir, R, S)
	peerCl, _ := openRecoverable(t, t.TempDir(), R, S)
	bound, peer := cl.Bind(key), peerCl.Bind(key)
	// TestServerRecoversFromSnapshot's 35 batches, past the snapshot
	// cadence (a quarter of the live points): 20 R deletes, then 15
	// inserts of a far-away pair.
	for i := 0; i < 35; i++ {
		u := srj.Update{DeleteR: []int32{R[i].ID}}
		if i >= 20 {
			u = srj.Update{
				InsertR: []srj.Point{{ID: int32(5000 + i), X: 9000, Y: 9000 + float64(i)}},
				InsertS: []srj.Point{{ID: int32(6000 + i), X: 9001, Y: 9000 + float64(i)}},
			}
		}
		for _, b := range []*srj.Client{bound, peer} {
			if _, err := b.Apply(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitSnapshot(t, cl, key)
	stop()
	cl2, _ := openRecoverable(t, dir, R, S)
	if got := lastApplied(t, cl2, key); got != 35 {
		t.Fatalf("last applied %d after snapshot recovery, want 35", got)
	}
	bound2 := cl2.Bind(key)
	for _, seed := range []uint64{1, 42} {
		i := firstDifference(t, bound2, peer, seed)
		if i < 0 {
			t.Fatalf("seed %d: the shard recovered from a snapshot now draws its peer's bytes; "+
				"the ROADMAP item 4 gap is closed, so assert byte identity here", seed)
		}
		t.Logf("seed %d: draws differ from the peer's from sample %d", seed, i)
	}
}

func TestServerRecoversFromSnapshot(t *testing.T) {
	R, S, l := srjtest.Data()
	dir := t.TempDir()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 11}
	ctx := context.Background()

	cl, stop := openRecoverable(t, dir, R, S)
	bound := cl.Bind(key)
	// Push the operations since the last snapshot past the snapshot
	// cadence (a quarter of the 120 live points) so the store snapshots
	// in the background: delete the first 20 R points and insert a
	// far-away cluster.
	var n uint64
	for i := 0; i < 20; i++ {
		if _, err := bound.Apply(ctx, srj.Update{DeleteR: []int32{R[i].ID}}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 15; i++ {
		if _, err := bound.Apply(ctx, srj.Update{
			InsertR: []srj.Point{{ID: int32(5000 + i), X: 9000, Y: 9000 + float64(i)}},
			InsertS: []srj.Point{{ID: int32(6000 + i), X: 9001, Y: 9000 + float64(i)}},
		}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	// The snapshot runs in the background; wait for the persister to
	// report one.
	waitSnapshot(t, cl, key)
	stop()

	cl2, _ := openRecoverable(t, dir, R, S)
	if got := lastApplied(t, cl2, key); got != n {
		t.Fatalf("last applied %d after snapshot recovery, want %d", got, n)
	}
	bound2 := cl2.Bind(key)
	res, err := bound2.Draw(ctx, srj.Request{T: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	deleted := make(map[int32]bool)
	for i := 0; i < 20; i++ {
		deleted[R[i].ID] = true
	}
	sawInsert := false
	for _, p := range res.Pairs {
		if deleted[p.R.ID] {
			t.Fatalf("deleted point %d resurrected by snapshot recovery", p.R.ID)
		}
		if p.R.ID >= 5000 && p.R.ID < 5015 {
			sawInsert = true
		}
	}
	if !sawInsert {
		t.Fatal("inserted cluster lost across snapshot recovery")
	}
}

// TestServerInstalledStoreSurvivesRestart: a store dumped from one
// server and installed on a durable one (POST /v1/snapshot/install, as
// a ring join does) comes back from close-and-reopen at the dump's
// generation and last applied update ID, serving the dump's live join.
// The install snapshots the dump's points and recovery bulk-builds over
// that snapshot, so before and after the restart the store is a bulk
// build over the same points in the same order and draws the same
// seeded bytes.
func TestServerInstalledStoreSurvivesRestart(t *testing.T) {
	R, S, l := srjtest.Data()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	donor, _ := openRecoverable(t, t.TempDir(), R, S)
	victim := R[2].ID
	for _, u := range []srj.Update{
		{DeleteR: []int32{victim}},
		{InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}}, InsertS: []srj.Point{{ID: 4001, X: 9001, Y: 9001}}},
	} {
		if _, err := donor.Bind(key).Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := donor.DumpSnapshot(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Generation != 2 || dump.LastAppliedID != 2 {
		t.Fatalf("dump at generation %d, update %d, want 2 and 2", dump.Generation, dump.LastAppliedID)
	}

	dir := t.TempDir()
	cl, stop := openRecoverable(t, dir, R, S)
	if _, err := cl.InstallSnapshot(ctx, dump); err != nil {
		t.Fatal(err)
	}
	draw := func(cl *srj.Client, seed uint64) []srj.Pair {
		t.Helper()
		res, err := cl.Bind(key).Draw(ctx, srj.Request{T: 30_000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Pairs
	}
	before := [][]srj.Pair{draw(cl, 1), draw(cl, 42)}
	stop()

	cl2, _ := openRecoverable(t, dir, R, S)
	stats, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Stores) != 1 {
		t.Fatalf("%d stores after restart, want 1", len(stats.Stores))
	}
	if info := stats.Stores[0]; info.Generation != dump.Generation || info.LastAppliedID != dump.LastAppliedID {
		t.Fatalf("reopened store at generation %d, update %d, want %d and %d",
			info.Generation, info.LastAppliedID, dump.Generation, dump.LastAppliedID)
	}
	type pairID struct{ r, s int32 }
	live := make(map[pairID]bool)
	srj.Join(dump.R, dump.S, l, func(r, s srj.Point) bool {
		live[pairID{r.ID, s.ID}] = true
		return true
	})
	for i, seed := range []uint64{1, 42} {
		after := draw(cl2, seed)
		if !slices.Equal(after, before[i]) {
			t.Fatalf("seed %d: the reopened store's draws differ from the installed store's", seed)
		}
		seen := make(map[pairID]bool)
		for _, p := range after {
			id := pairID{p.R.ID, p.S.ID}
			if !live[id] {
				t.Fatalf("seed %d: drew (%d, %d), not in the dump's live join", seed, p.R.ID, p.S.ID)
			}
			seen[id] = true
		}
		if len(seen) != len(live) {
			t.Fatalf("seed %d: %d of the dump's %d live pairs drawn in %d samples", seed, len(seen), len(live), len(after))
		}
	}
	if !live[pairID{4000, 4001}] {
		t.Fatal("the inserted pair is not in the dump's live join")
	}
}

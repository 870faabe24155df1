package srj_test

// Crash-recovery at the server level: a Server opened over a DataDir
// must come back from close-and-reopen serving exactly the state its
// write-ahead log acknowledged — deletes stay deleted, inserts stay
// present, the update sequence resumes where it stopped — both on the
// pure log-replay path and on the snapshot-plus-tail path the
// snapshot cadence leaves behind. A ring join's install persists only
// the store it builds: one that meets the key's live or in-flight
// store writes nothing, and the restart recovers the store that won.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	srj "repro"
	"repro/internal/server"
	"repro/srjtest"
)

// openRecoverable starts an in-process server over dir with the given
// resolver, fronted by an httptest server. The returned stop function
// closes the HTTP listener and then the server (syncing the WAL), so
// the directory can be reopened.
func openRecoverable(t *testing.T, dir string, R, S []srj.Point) (*srj.Client, func()) {
	t.Helper()
	return openDurable(t, dir, func(name string) ([]srj.Point, []srj.Point, error) {
		return R, S, nil
	})
}

// openDurable is openRecoverable with a resolver of the test's own.
func openDurable(t *testing.T, dir string, resolve func(name string) ([]srj.Point, []srj.Point, error)) (*srj.Client, func()) {
	t.Helper()
	srv, err := srj.NewServer(&srj.ServerOptions{
		Datasets: resolve,
		MaxT:     200_000,
		DataDir:  dir,
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
func firstDifference(t *testing.T, a, b srj.Source, seed uint64) int {
	t.Helper()
	var draws [2][]srj.Pair
	for i, c := range []srj.Source{a, b} {
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
	if dump.Generation != 2 || dump.LastID != 2 {
		t.Fatalf("dump at generation %d, update %d, want 2 and 2", dump.Generation, dump.LastID)
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
	if info := stats.Stores[0]; info.Generation != dump.Generation || info.LastAppliedID != dump.LastID {
		t.Fatalf("reopened store at generation %d, update %d, want %d and %d",
			info.Generation, info.LastAppliedID, dump.Generation, dump.LastID)
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

// joinPair names one join pair by its point IDs.
type joinPair struct{ r, s int32 }

// liveJoin enumerates the join of R and S within l.
func liveJoin(R, S []srj.Point, l float64) map[joinPair]bool {
	live := make(map[joinPair]bool)
	srj.Join(R, S, l, func(r, s srj.Point) bool {
		live[joinPair{r.ID, s.ID}] = true
		return true
	})
	return live
}

// dumpAt applies updates to key on a fresh in-memory donor and returns
// its dump.
func dumpAt(t *testing.T, key srj.EngineKey, R, S []srj.Point, updates []srj.Update) server.SnapshotDump {
	t.Helper()
	ctx := context.Background()
	donor, _ := openRecoverable(t, t.TempDir(), R, S)
	for _, u := range updates {
		if _, err := donor.Bind(key).Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := donor.DumpSnapshot(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if n := uint64(len(updates)); dump.Generation != n || dump.LastID != n {
		t.Fatalf("dump at generation %d, update %d, want %d and %d", dump.Generation, dump.LastID, n, n)
	}
	return dump
}

// donorUpdates are three updates no test applies to the recipient.
var donorUpdates = []srj.Update{
	{InsertR: []srj.Point{{ID: 5000, X: 9500, Y: 9500}}, InsertS: []srj.Point{{ID: 5001, X: 9501, Y: 9501}}},
	{InsertS: []srj.Point{{ID: 5002, X: 9499, Y: 9500}}},
	{InsertR: []srj.Point{{ID: 5003, X: 9500, Y: 9499}}},
}

// TestServerInstallRacingFirstUpdateIsNotPersisted: a ring join's
// install that arrives while a first update is still building the
// key's store waits for that store instead of building its own. The
// store does not cover the dump's update ID, so the install is refused
// with 409 update_sequence and writes no snapshot: after a restart the
// key serves the acknowledged update, not the refused dump.
func TestServerInstallRacingFirstUpdateIsNotPersisted(t *testing.T) {
	R, S, l := srjtest.Data()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	dump := dumpAt(t, key, R, S, donorUpdates)

	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cl, stop := openDurable(t, dir, func(name string) ([]srj.Point, []srj.Point, error) {
		once.Do(func() { close(entered) })
		<-release
		return R, S, nil
	})

	insert := srj.Update{InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}}, InsertS: []srj.Point{{ID: 4001, X: 9001, Y: 9001}}}
	applied := make(chan error, 1)
	go func() {
		_, err := cl.Bind(key).Apply(ctx, insert)
		applied <- err
	}()
	<-entered
	installed := make(chan error, 1)
	go func() {
		_, err := cl.InstallSnapshot(ctx, dump)
		installed <- err
	}()
	select {
	case err := <-installed:
		close(release)
		t.Fatalf("install answered (%v) while the key's first store build was in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	var apiErr *srj.APIError
	if err := <-installed; !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != "update_sequence" {
		t.Fatalf("install over a store at update 1: %v, want 409 update_sequence", err)
	}
	if snaps, err := filepath.Glob(filepath.Join(dir, "*", "snap-*.srs")); err != nil || len(snaps) != 0 {
		t.Fatalf("snapshots after the refused install: %v (%v), want none", snaps, err)
	}
	if got := lastApplied(t, cl, key); got != 1 {
		t.Fatalf("last applied %d before restart, want 1", got)
	}
	stop()

	cl2, _ := openRecoverable(t, dir, R, S)
	if got := lastApplied(t, cl2, key); got != 1 {
		t.Fatalf("last applied %d after restart, want 1", got)
	}
	live := liveJoin(append(slices.Clone(R), insert.InsertR...), append(slices.Clone(S), insert.InsertS...), l)
	res, err := cl2.Bind(key).Draw(ctx, srj.Request{T: 30_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[joinPair]bool)
	for _, p := range res.Pairs {
		id := joinPair{p.R.ID, p.S.ID}
		if !live[id] {
			t.Fatalf("drew (%d, %d), not in the seed-plus-update live join", p.R.ID, p.S.ID)
		}
		seen[id] = true
	}
	if len(seen) != len(live) {
		t.Fatalf("%d of the %d live pairs drawn in %d samples", len(seen), len(live), len(res.Pairs))
	}
}

// TestServerInstallAnswersStoreState: an install the key's store
// already covers is acknowledged with the store's own generation and
// last applied update ID, not the dump's.
func TestServerInstallAnswersStoreState(t *testing.T) {
	R, S, l := srjtest.Data()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	dump := dumpAt(t, key, R, S, donorUpdates[:2])
	cl, _ := openRecoverable(t, t.TempDir(), R, S)
	for i := 0; i < 4; i++ {
		if _, err := cl.Bind(key).Apply(ctx, srj.Update{DeleteR: []int32{R[i].ID}}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cl.InstallSnapshot(ctx, dump)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 4 || resp.LastAppliedID != 4 {
		t.Fatalf("install of a dump at update 2 answered generation %d, update %d; the store is at 4 and 4",
			resp.Generation, resp.LastAppliedID)
	}
}

// TestServerInstallConcurrentDumpsBuildOnce: two concurrent installs of
// one dump on an empty durable server both succeed through one build,
// which writes the one snapshot.
func TestServerInstallConcurrentDumpsBuildOnce(t *testing.T) {
	R, S, l := srjtest.Data()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	dump := dumpAt(t, key, R, S, donorUpdates)
	cl, _ := openRecoverable(t, t.TempDir(), R, S)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.InstallSnapshot(ctx, dump)
			if err == nil && resp.LastAppliedID != dump.LastID {
				err = fmt.Errorf("answered update %d, want %d", resp.LastAppliedID, dump.LastID)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Stores) != 1 {
		t.Fatalf("%d stores, want 1", len(stats.Stores))
	}
	if info := stats.Stores[0]; info.WALSnapshots != 1 || info.LastAppliedID != dump.LastID {
		t.Fatalf("store with %d snapshots at update %d, want 1 at %d", info.WALSnapshots, info.LastAppliedID, dump.LastID)
	}
}

// TestServerInstalledStoreTakesUpdates: a durable store installed at
// update 3 appends the next update at ID 4, whether the update comes
// right after the install or after a restart that recovered the
// installed state with an empty log, and the update survives the next
// restart.
func TestServerInstalledStoreTakesUpdates(t *testing.T) {
	R, S, l := srjtest.Data()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	dump := dumpAt(t, key, R, S, donorUpdates)
	for _, restartFirst := range []bool{false, true} {
		dir := t.TempDir()
		cl, stop := openRecoverable(t, dir, R, S)
		if _, err := cl.InstallSnapshot(ctx, dump); err != nil {
			t.Fatal(err)
		}
		if restartFirst {
			stop()
			cl, stop = openRecoverable(t, dir, R, S)
		}
		if _, err := cl.Bind(key).Apply(ctx, srj.Update{DeleteR: []int32{5003}}); err != nil {
			t.Fatalf("restart first %v: update after the install: %v", restartFirst, err)
		}
		stop()
		cl, _ = openRecoverable(t, dir, R, S)
		if got := lastApplied(t, cl, key); got != 4 {
			t.Fatalf("restart first %v: last applied %d after restart, want 4", restartFirst, got)
		}
	}
}

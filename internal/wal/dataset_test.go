package wal

// Dataset-level recovery: update batches round-trip through the SRJU
// payload encoding, snapshots capture and prune, a record addressed to
// a different key is refused, and — the torture core — a store
// recovered from a log truncated at any record boundary equals the
// oracle that applied the same update prefix in memory.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/registry"
	"repro/internal/server"
)

var testKey = registry.Key{Dataset: "torture", L: 50, Algorithm: "bbst", Seed: 9}

// scriptUpdate is the deterministic i-th update batch: inserts on both
// sides, and from the third batch on, deletes of earlier inserts.
func scriptUpdate(i int) dynamic.Update {
	u := dynamic.Update{
		InsertR: []geom.Point{{ID: int32(1000 + 2*i), X: float64(10 * i), Y: float64(5 * i)}},
		InsertS: []geom.Point{{ID: int32(2000 + 2*i), X: float64(10*i) + 3, Y: float64(5*i) - 2}},
	}
	if i >= 3 {
		u.DeleteR = []int32{int32(1000 + 2*(i-3))}
	}
	if i >= 4 {
		u.DeleteS = []int32{int32(2000 + 2*(i-4))}
	}
	return u
}

// openTestDataset opens the dataset for testKey under dir.
func openTestDataset(t *testing.T, dir string, opts Options) *Dataset {
	t.Helper()
	m, err := OpenManager(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	d, err := m.Open(testKey)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func updatesEqual(a, b dynamic.Update) bool {
	eqP := func(x, y []geom.Point) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqI := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eqP(a.InsertR, b.InsertR) && eqP(a.InsertS, b.InsertS) &&
		eqI(a.DeleteR, b.DeleteR) && eqI(a.DeleteS, b.DeleteS)
}

func TestDatasetAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	d := openTestDataset(t, dir, Options{})
	const n = 8
	for i := 1; i <= n; i++ {
		if err := d.Append(uint64(i), scriptUpdate(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDataset(t, dir, Options{})
	var got []dynamic.SeqUpdate
	err := d2.Replay(0, func(id uint64, u dynamic.Update) error {
		got = append(got, dynamic.SeqUpdate{ID: id, U: u})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, rec := range got {
		if rec.ID != uint64(i+1) {
			t.Fatalf("record %d has ID %d", i, rec.ID)
		}
		if !updatesEqual(rec.U, scriptUpdate(i+1)) {
			t.Fatalf("record %d decoded update differs: %+v", i+1, rec.U)
		}
	}
	// A fromID skips the covered prefix exactly.
	var after []uint64
	if err := d2.Replay(5, func(id uint64, u dynamic.Update) error {
		after = append(after, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 || after[0] != 6 {
		t.Fatalf("Replay(5) returned IDs %v", after)
	}
}

func TestDatasetSnapshotRoundtripAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Small segments so the snapshot has whole sealed segments to
	// retire.
	d := openTestDataset(t, dir, Options{SegmentBytes: 256})
	const n = 12
	for i := 1; i <= n; i++ {
		if err := d.Append(uint64(i), scriptUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	R := []geom.Point{{ID: 1, X: 1, Y: 2}, {ID: 2, X: 3, Y: 4}}
	S := []geom.Point{{ID: 7, X: -1, Y: -2}}
	before := d.PersistStats()
	if err := d.Snapshot(9, 8, R, S); err != nil {
		t.Fatal(err)
	}
	after := d.PersistStats()
	if after.Segments >= before.Segments {
		t.Fatalf("snapshot pruned nothing: %d -> %d segments", before.Segments, after.Segments)
	}
	if after.LastSnapshotID != 8 || after.Snapshots != 1 {
		t.Fatalf("snapshot stats: %+v", after)
	}
	// Going backwards is refused.
	if err := d.Snapshot(9, 7, R, S); err == nil {
		t.Fatal("snapshot behind the existing one accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDataset(t, dir, Options{SegmentBytes: 256})
	snap, ok, err := d2.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: %v, ok=%v", err, ok)
	}
	if snap.Generation != 9 || snap.LastID != 8 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if len(snap.R) != len(R) || len(snap.S) != len(S) || snap.R[0] != R[0] || snap.R[1] != R[1] || snap.S[0] != S[0] {
		t.Fatalf("snapshot points differ: %+v", snap)
	}
	// Replay past the snapshot yields exactly the uncovered tail.
	var ids []uint64
	if err := d2.Replay(snap.LastID, func(id uint64, u dynamic.Update) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != n-8 || ids[0] != 9 {
		t.Fatalf("post-snapshot replay IDs %v", ids)
	}
}

// TestDatasetSnapshotOnEmptyLogSeatsSequence: a snapshot written to a
// dataset whose log holds nothing (an installed state at update 5)
// makes the next append ID 6, before and after a reopen, and replay
// past the snapshot yields only the records appended after it.
func TestDatasetSnapshotOnEmptyLogSeatsSequence(t *testing.T) {
	R := []geom.Point{{ID: 1, X: 1, Y: 2}}
	S := []geom.Point{{ID: 7, X: -1, Y: -2}}
	for _, reopen := range []bool{false, true} {
		dir := t.TempDir()
		d := openTestDataset(t, dir, Options{})
		if err := d.Snapshot(5, 5, R, S); err != nil {
			t.Fatal(err)
		}
		if reopen {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d = openTestDataset(t, dir, Options{})
		}
		if err := d.Append(6, scriptUpdate(6)); err != nil {
			t.Fatalf("reopen %v: append after the snapshot: %v", reopen, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		if err := openTestDataset(t, dir, Options{}).Replay(5, func(id uint64, u dynamic.Update) error {
			ids = append(ids, id)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != 6 {
			t.Fatalf("reopen %v: replay past the snapshot yields IDs %v, want [6]", reopen, ids)
		}
	}
}

func TestDatasetCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	d := openTestDataset(t, dir, Options{})
	if err := d.Append(1, scriptUpdate(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(1, 1, []geom.Point{{ID: 1, X: 1, Y: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*", snapPrefix+"*"+snapSuffix))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files: %v, %v", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDataset(t, dir, Options{})
	if _, _, err := d2.LoadSnapshot(); !errors.Is(err, ErrCorrupt) {
		// The newest snapshot failing validation must be an error, not
		// a silent ok=false — falling back past pruned records would
		// serve shortened history.
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestDatasetKeyMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	d := openTestDataset(t, dir, Options{})
	if err := d.Append(1, scriptUpdate(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Dir(datasetMetaPath(t, dir))

	// A directory claimed by one key refuses to open as another.
	m, err := OpenManager(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	other := testKey
	other.Seed++
	if _, err := m.Open(other); err != nil {
		t.Fatalf("distinct keys get distinct directories: %v", err)
	}

	// A log record whose payload addresses a different key is refused
	// at replay, even when the envelope's key hash matches (simulated
	// by appending through a raw log with the right hash).
	l, err := OpenLog(sub, Options{KeyHash: KeyHash(testKey)})
	if err != nil {
		t.Fatal(err)
	}
	req := server.UpdateRequest{
		Dataset: other.Dataset, L: other.L, Algorithm: other.Algorithm, Seed: other.Seed,
		InsertR: []geom.Point{{ID: 5, X: 1, Y: 1}},
	}
	var buf bytes.Buffer
	if err := server.EncodeUpdateRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDataset(t, dir, Options{})
	err = d2.Replay(0, func(id uint64, u dynamic.Update) error { return nil })
	if !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("foreign-key record: err = %v, want ErrKeyMismatch", err)
	}
}

// datasetMetaPath finds testKey's meta.json under the manager dir.
func datasetMetaPath(t *testing.T, dir string) string {
	t.Helper()
	metas, err := filepath.Glob(filepath.Join(dir, "*", metaName))
	if err != nil || len(metas) == 0 {
		t.Fatalf("meta files: %v, %v", metas, err)
	}
	return metas[0]
}

func TestDatasetLostLeadingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	d := openTestDataset(t, dir, Options{SegmentBytes: 256})
	const n = 12
	for i := 1; i <= n; i++ {
		if err := d.Append(uint64(i), scriptUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Dir(datasetMetaPath(t, dir))
	segs, err := filepath.Glob(filepath.Join(sub, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	// With no snapshot covering the hole, replay must refuse — the
	// missing records were acknowledged history.
	d2 := openTestDataset(t, dir, Options{SegmentBytes: 256})
	err = d2.Replay(0, func(id uint64, u dynamic.Update) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lost leading segment: err = %v, want ErrCorrupt", err)
	}
}

func TestManagerKeysEnumeration(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keyB := registry.Key{Dataset: "beta", L: 10, Algorithm: "grid", Seed: 2}
	for _, k := range []registry.Key{testKey, keyB} {
		if _, err := m.Open(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManager(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	keys, err := m2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("Keys() = %v", keys)
	}
	seen := map[registry.Key]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if !seen[testKey] || !seen[keyB] {
		t.Fatalf("Keys() = %v, want both persisted keys", keys)
	}
}

// TestDatasetTruncationRecoversOraclePrefix is the dataset-level
// torture: with the log's final segment truncated at EVERY byte
// offset, recovery must yield exactly a prefix of the oracle update
// sequence — decoded content equal, never a skipped, reordered, or
// half-applied record.
func TestDatasetTruncationRecoversOraclePrefix(t *testing.T) {
	dir := t.TempDir()
	d := openTestDataset(t, dir, Options{})
	const n = 6
	oracle := make([]dynamic.Update, n)
	for i := 1; i <= n; i++ {
		oracle[i-1] = scriptUpdate(i)
		if err := d.Append(uint64(i), oracle[i-1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Dir(datasetMetaPath(t, dir))
	segs, err := filepath.Glob(filepath.Join(sub, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	intact, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(intact); cut++ {
		work := t.TempDir()
		wsub := filepath.Join(work, filepath.Base(sub))
		if err := os.MkdirAll(wsub, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(wsub, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wseg := filepath.Join(wsub, filepath.Base(segs[0]))
		if err := os.WriteFile(wseg, intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManager(work, Options{})
		if err != nil {
			t.Fatalf("cut=%d: OpenManager: %v", cut, err)
		}
		wd, err := m.Open(testKey)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		var got []dynamic.SeqUpdate
		if err := wd.Replay(0, func(id uint64, u dynamic.Update) error {
			got = append(got, dynamic.SeqUpdate{ID: id, U: u})
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: Replay: %v", cut, err)
		}
		if len(got) > n {
			t.Fatalf("cut=%d: replayed %d records from a %d-record log", cut, len(got), n)
		}
		for i, rec := range got {
			if rec.ID != uint64(i+1) || !updatesEqual(rec.U, oracle[i]) {
				t.Fatalf("cut=%d: record %d diverges from oracle: id=%d u=%+v", cut, i, rec.ID, rec.U)
			}
		}
		if cut == len(intact) && len(got) != n {
			t.Fatalf("intact log replayed only %d/%d records", len(got), n)
		}
		m.Close()
	}
}

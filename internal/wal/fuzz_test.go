package wal

// FuzzWALReplay throws arbitrary bytes at the segment reader as the
// final (torn-tail-tolerant) segment of a log. Invariants under any
// input: open+replay never panics; the key hash embedded in the bytes
// is honored; and recovery is idempotent — whatever records the first
// open salvages, a second open of the same (now repaired) directory
// replays identically.
//
// FuzzSnapshotDecode does the same for the snapshot decoder that every
// recovery from a snapshot goes through.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

func FuzzWALReplay(f *testing.F) {
	// Seed with a genuine two-record segment and progressively damaged
	// variants so the fuzzer starts inside the interesting format space.
	seedDir := f.TempDir()
	l, err := OpenLog(seedDir, Options{KeyHash: testKeyHash})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Append(1, []byte("alpha payload")); err != nil {
		f.Fatal(err)
	}
	if err := l.Append(2, []byte("beta")); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(seedDir, segPrefix+"*"+segSuffix))
	if err != nil || len(names) != 1 {
		f.Fatalf("seed segments: %v, %v", names, err)
	}
	valid, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])   // torn payload
	f.Add(valid[:segHeaderLen])   // header only
	f.Add(valid[:segHeaderLen-2]) // torn header
	f.Add([]byte{})               // empty file
	f.Add([]byte("not a wal segment at all, just prose"))
	flipped := append([]byte(nil), valid...)
	flipped[segHeaderLen+2] ^= 0x40 // damaged first record id
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segPrefix+"0000000000000001"+segSuffix)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Use the key hash the bytes claim, so structurally valid inputs
		// get past the header check and exercise the record reader.
		var hash uint64
		if len(data) >= segHeaderLen {
			hash = binary.LittleEndian.Uint64(data[5:segHeaderLen])
		}
		l, err := OpenLog(dir, Options{KeyHash: hash})
		if err != nil {
			return // refused: fine, as long as it didn't panic
		}
		type rec struct {
			id      uint64
			payload []byte
		}
		var got []rec
		if err := l.Replay(func(id uint64, payload []byte) error {
			got = append(got, rec{id, append([]byte(nil), payload...)})
			return nil
		}); err != nil {
			t.Fatalf("open accepted the log but replay failed: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Idempotence: the first open truncated any torn tail in place,
		// so a second open must accept and replay the same records.
		l2, err := OpenLog(dir, Options{KeyHash: hash})
		if err != nil {
			t.Fatalf("reopen after salvage refused: %v", err)
		}
		defer l2.Close()
		var again []rec
		if err := l2.Replay(func(id uint64, payload []byte) error {
			again = append(again, rec{id, append([]byte(nil), payload...)})
			return nil
		}); err != nil {
			t.Fatalf("replay after salvage failed: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("salvage not idempotent: %d records, then %d", len(got), len(again))
		}
		for i := range got {
			if got[i].id != again[i].id || !bytes.Equal(got[i].payload, again[i].payload) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
	})
}

// FuzzSnapshotDecode decodes arbitrary bytes as a snapshot of the test
// dataset (its key hash). Each input is decoded as given and again with
// its trailing CRC recomputed, so the fuzzer also reaches the checks
// behind the checksum. Invariants under any input: decoding never
// panics; a body whose length disagrees with its point counts is
// refused before any point slice is allocated; and any accepted
// snapshot, written back through Dataset.Snapshot, yields the same
// bytes.
func FuzzSnapshotDecode(f *testing.F) {
	d, err := openDataset(f.TempDir(), testKey, Options{})
	if err != nil {
		f.Fatal(err)
	}
	R := []geom.Point{{ID: 1, X: 1, Y: 2}, {ID: -2, X: -3.5, Y: 4e9}}
	S := []geom.Point{{ID: 7, X: -1, Y: -2}}
	if err := d.Snapshot(3, 7, R, S); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(d.Dir(), snapName(7)))
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])    // torn point
	f.Add(valid[:snapHeaderLen+4]) // header and CRC only
	f.Add(valid[:snapHeaderLen-2]) // torn header
	f.Add([]byte{})
	f.Add([]byte("not a snapshot at all, just prose"))
	for _, damage := range []func(b []byte){
		func(b []byte) { b[4]++ },                                                       // unknown version
		func(b []byte) { b[7] ^= 0x10 },                                                 // another key's hash
		func(b []byte) { b[snapHeaderLen+5] ^= 0x01 },                                   // a flipped coordinate bit
		func(b []byte) { binary.LittleEndian.PutUint32(b[29:33], 3) },                   // one R point too many
		func(b []byte) { binary.LittleEndian.PutUint32(b[33:37], 1<<20) },               // a huge S count
		func(b []byte) { binary.LittleEndian.PutUint32(b[29:33], maxSnapshotPoints+1) }, // past the bound
	} {
		b := append([]byte(nil), valid...)
		damage(b)
		f.Add(b)
		f.Add(withSnapshotCRC(b))
	}

	hash := KeyHash(testKey)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, withSnapshotCRC(data)} {
			checkSnapshotDecode(t, raw, hash)
		}
	})
}

// snapName is the file name Dataset.Snapshot gives the snapshot
// covering IDs <= lastID.
func snapName(lastID uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lastID, snapSuffix)
}

// withSnapshotCRC returns a copy of raw with its trailing four bytes
// replaced by the CRC of the rest, as Dataset.Snapshot writes it.
func withSnapshotCRC(raw []byte) []byte {
	if len(raw) < 4 {
		return raw
	}
	b := append([]byte(nil), raw...)
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, castagnoli))
	return b
}

// checkSnapshotDecode holds one input to FuzzSnapshotDecode's
// invariants.
func checkSnapshotDecode(t *testing.T, raw []byte, hash uint64) {
	if len(raw) >= snapHeaderLen+4 {
		claimed := int64(binary.LittleEndian.Uint32(raw[29:33])) + int64(binary.LittleEndian.Uint32(raw[33:37]))
		if int64(len(raw)-4) != snapHeaderLen+geom.PointBytes*claimed {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeSnapshot(raw, hash)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted a %d-byte snapshot claiming %d points", len(raw), claimed)
			}
			// Below a few KB the error's own allocations could not be
			// told from a point slice; above, a slice is the only
			// allocation that large.
			slice := claimed * int64(unsafe.Sizeof(geom.Point{}))
			if alloc := int64(after.TotalAlloc - before.TotalAlloc); slice >= 1<<12 && alloc >= slice {
				t.Fatalf("refusing a %d-byte snapshot claiming %d points allocated %d bytes", len(raw), claimed, alloc)
			}
			return
		}
	}
	snap, err := decodeSnapshot(raw, hash)
	if err != nil {
		return // refused: fine, as long as it didn't panic
	}
	d, err := openDataset(t.TempDir(), testKey, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Snapshot(snap.Generation, snap.LastID, snap.R, snap.S); err != nil {
		t.Fatalf("writing back an accepted snapshot: %v", err)
	}
	back, err := os.ReadFile(filepath.Join(d.Dir(), snapName(snap.LastID)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatalf("an accepted %d-byte snapshot wrote back as %d different bytes", len(raw), len(back))
	}
}

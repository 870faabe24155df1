package wal

// The per-dataset durability unit and the data-dir manager. A Dataset
// owns one directory (meta.json + segments + snapshots), implements
// dynamic.Persister so a Store writes ahead through it, and replays
// its contents at recovery. A Manager owns the data dir, enumerates
// the datasets a previous process persisted, and opens them under one
// shared Options.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/registry"
	"repro/internal/server"
)

const (
	snapMagic   = uint32(0x53524a53) // "SRJS"
	snapVersion = uint8(1)
	snapPrefix  = "snap-"
	snapSuffix  = ".srs"
	metaName    = "meta.json"

	// snapHeaderLen: magic, version, keyhash, generation, lastID, nR, nS.
	snapHeaderLen = 4 + 1 + 8 + 8 + 8 + 4 + 4
	pointLen      = 20

	// maxSnapshotPoints bounds one side of a snapshot so a corrupt
	// count cannot force an unbounded allocation before the CRC check.
	maxSnapshotPoints = 1 << 28
)

// ErrKeyMismatch reports a WAL record or snapshot whose embedded
// dataset key does not match the dataset being recovered. Recovery
// refuses it — replaying another dataset's mutations would silently
// corrupt this one.
var ErrKeyMismatch = errors.New("wal: record dataset key does not match")

// KeyHash fingerprints an engine key (generation ignored) for segment
// and snapshot headers: a moved or mislabeled directory fails fast on
// open instead of replaying a different dataset's records.
func KeyHash(key registry.Key) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key.Dataset)
	h.Write([]byte{0})
	io.WriteString(h, key.Algorithm)
	h.Write([]byte{0})
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(key.L))
	binary.LittleEndian.PutUint64(b[8:], key.Seed)
	h.Write(b[:])
	return h.Sum64()
}

// meta is the JSON identity record of one dataset directory.
type meta struct {
	Dataset   string  `json:"dataset"`
	L         float64 `json:"l"`
	Algorithm string  `json:"algorithm"`
	Seed      uint64  `json:"seed,omitempty"`
}

func (m meta) key() registry.Key {
	return registry.Key{Dataset: m.Dataset, L: m.L, Algorithm: server.NormalizeAlgorithm(m.Algorithm), Seed: m.Seed}
}

// Snapshot is one recovered point-set snapshot: the materialized base
// sides as of LastID, served at Generation when it was taken.
type Snapshot struct {
	Generation uint64
	LastID     uint64
	R, S       []geom.Point
}

// Dataset is the durability unit of one engine key: its meta record,
// segment log, and snapshots, in one directory. It implements
// dynamic.Persister. All methods are safe for concurrent use.
type Dataset struct {
	dir  string
	key  registry.Key
	hash uint64
	log  *Log

	mu         sync.Mutex
	lastSnapID uint64
	snapshots  uint64
	closed     bool
}

// openDataset opens (or initializes) the dataset directory for key.
func openDataset(dir string, key registry.Key, opts Options) (*Dataset, error) {
	hash := KeyHash(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, metaName)
	raw, err := os.ReadFile(metaPath)
	switch {
	case err == nil:
		var m meta
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("wal: %s: %w", metaPath, err)
		}
		if got := m.key(); got != key {
			return nil, fmt.Errorf("%w: directory %s holds %s, not %s", ErrKeyMismatch, dir, got, key)
		}
	case errors.Is(err, os.ErrNotExist):
		m := meta{Dataset: key.Dataset, L: key.L, Algorithm: key.Algorithm, Seed: key.Seed}
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := writeFileAtomic(metaPath, blob); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	opts.KeyHash = hash
	log, err := OpenLog(dir, opts)
	if err != nil {
		return nil, err
	}
	d := &Dataset{dir: dir, key: key, hash: hash, log: log}
	if id, _, err := d.newestSnapshotLocked(); err == nil {
		d.lastSnapID = id
	}
	return d, nil
}

// Key returns the engine key this dataset persists.
func (d *Dataset) Key() registry.Key { return d.key }

// Dir returns the dataset's directory.
func (d *Dataset) Dir() string { return d.dir }

// LastID reports the last record ID in the log (0 when empty); the
// snapshot may cover beyond it after pruning, so recovery starts from
// max(snapshot LastID, replayed records).
func (d *Dataset) LastID() uint64 { return d.log.LastID() }

// Append writes one sequenced update batch to the log — the
// dynamic.Persister write-ahead hook. The payload is the SRJU wire
// encoding of the batch addressed to this dataset's key, so the log
// is readable by the same decoder that reads /v1/update bodies.
func (d *Dataset) Append(id uint64, u dynamic.Update) error {
	req := server.UpdateRequest{
		Dataset:   d.key.Dataset,
		L:         d.key.L,
		Algorithm: d.key.Algorithm,
		Seed:      d.key.Seed,
		InsertR:   u.InsertR,
		InsertS:   u.InsertS,
		DeleteR:   u.DeleteR,
		DeleteS:   u.DeleteS,
	}
	var buf bytes.Buffer
	if err := server.EncodeUpdateRequest(&buf, req); err != nil {
		return err
	}
	return d.log.Append(id, buf.Bytes())
}

// Snapshot persists the live point sets covering update IDs <= lastID
// — the dynamic.Persister snapshot hook. The file is
// written whole to a temp name, fsynced, and renamed, so a crash
// leaves either the old snapshot or the new one, never a torn
// in-between; then older snapshots and fully-covered log segments are
// pruned.
func (d *Dataset) Snapshot(gen, lastID uint64, R, S []geom.Point) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("wal: dataset is closed")
	}
	if lastID < d.lastSnapID {
		return fmt.Errorf("wal: snapshot at ID %d behind existing snapshot %d", lastID, d.lastSnapID)
	}
	buf := make([]byte, snapHeaderLen, snapHeaderLen+pointLen*(len(R)+len(S))+4)
	binary.LittleEndian.PutUint32(buf[:4], snapMagic)
	buf[4] = snapVersion
	binary.LittleEndian.PutUint64(buf[5:13], d.hash)
	binary.LittleEndian.PutUint64(buf[13:21], gen)
	binary.LittleEndian.PutUint64(buf[21:29], lastID)
	binary.LittleEndian.PutUint32(buf[29:33], uint32(len(R)))
	binary.LittleEndian.PutUint32(buf[33:37], uint32(len(S)))
	for _, p := range R {
		buf = appendPoint(buf, p)
	}
	for _, p := range S {
		buf = appendPoint(buf, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	name := fmt.Sprintf("%s%016x%s", snapPrefix, lastID, snapSuffix)
	if err := writeFileAtomic(filepath.Join(d.dir, name), buf); err != nil {
		return err
	}
	d.snapshots++
	d.lastSnapID = lastID
	// Best effort from here: the snapshot is durable; stale files just
	// occupy space until the next snapshot retries the cleanup.
	d.pruneSnapshotsLocked(lastID)
	if err := d.log.Prune(lastID); err != nil {
		return err
	}
	return nil
}

func appendPoint(buf []byte, p geom.Point) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
}

// pruneSnapshotsLocked removes snapshots older than keep.
func (d *Dataset) pruneSnapshotsLocked(keep uint64) {
	ids, names, err := d.snapshotList()
	if err != nil {
		return
	}
	for i, id := range ids {
		if id < keep {
			os.Remove(filepath.Join(d.dir, names[i]))
		}
	}
	syncDir(d.dir)
}

// snapshotList returns snapshot IDs and filenames, ascending.
func (d *Dataset) snapshotList() ([]uint64, []string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, nil, err
	}
	var ids []uint64
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
		names = append(names, name)
	}
	sort.Sort(&snapOrder{ids, names})
	return ids, names, nil
}

type snapOrder struct {
	ids   []uint64
	names []string
}

func (s *snapOrder) Len() int           { return len(s.ids) }
func (s *snapOrder) Less(a, b int) bool { return s.ids[a] < s.ids[b] }
func (s *snapOrder) Swap(a, b int) {
	s.ids[a], s.ids[b] = s.ids[b], s.ids[a]
	s.names[a], s.names[b] = s.names[b], s.names[a]
}

func (d *Dataset) newestSnapshotLocked() (uint64, string, error) {
	ids, names, err := d.snapshotList()
	if err != nil || len(ids) == 0 {
		return 0, "", os.ErrNotExist
	}
	return ids[len(ids)-1], names[len(names)-1], nil
}

// LoadSnapshot reads the newest snapshot. ok is false when none
// exists; a snapshot that fails validation is an error (recovery must
// refuse, not silently fall back past pruned log records).
func (d *Dataset) LoadSnapshot() (snap Snapshot, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, name, err := d.newestSnapshotLocked()
	if errors.Is(err, os.ErrNotExist) {
		return Snapshot{}, false, nil
	}
	if err != nil {
		return Snapshot{}, false, err
	}
	raw, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil {
		return Snapshot{}, false, err
	}
	snap, err = decodeSnapshot(raw, d.hash)
	if err != nil {
		return Snapshot{}, false, fmt.Errorf("%s: %w", name, err)
	}
	return snap, true, nil
}

func decodeSnapshot(raw []byte, wantHash uint64) (Snapshot, error) {
	if len(raw) < snapHeaderLen+4 {
		return Snapshot{}, fmt.Errorf("%w: snapshot truncated (%d bytes)", ErrCorrupt, len(raw))
	}
	if m := binary.LittleEndian.Uint32(raw[:4]); m != snapMagic {
		return Snapshot{}, fmt.Errorf("%w: bad snapshot magic %#x", ErrCorrupt, m)
	}
	if v := raw[4]; v != snapVersion {
		return Snapshot{}, fmt.Errorf("%w: unsupported snapshot version %d", ErrCorrupt, v)
	}
	if h := binary.LittleEndian.Uint64(raw[5:13]); h != wantHash {
		return Snapshot{}, fmt.Errorf("%w: snapshot key hash %#x (want %#x)", ErrKeyMismatch, h, wantHash)
	}
	body, crcRaw := raw[:len(raw)-4], raw[len(raw)-4:]
	if sum := crc32.Checksum(body, castagnoli); sum != binary.LittleEndian.Uint32(crcRaw) {
		return Snapshot{}, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	nR := binary.LittleEndian.Uint32(raw[29:33])
	nS := binary.LittleEndian.Uint32(raw[33:37])
	if nR > maxSnapshotPoints || nS > maxSnapshotPoints ||
		int64(len(body)) != int64(snapHeaderLen)+pointLen*(int64(nR)+int64(nS)) {
		return Snapshot{}, fmt.Errorf("%w: snapshot size does not match point counts", ErrCorrupt)
	}
	snap := Snapshot{
		Generation: binary.LittleEndian.Uint64(raw[13:21]),
		LastID:     binary.LittleEndian.Uint64(raw[21:29]),
		R:          decodePoints(raw[snapHeaderLen:], int(nR)),
		S:          decodePoints(raw[snapHeaderLen+pointLen*int(nR):], int(nS)),
	}
	return snap, nil
}

func decodePoints(raw []byte, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		rec := raw[i*pointLen:]
		pts[i] = geom.Point{
			ID: int32(binary.LittleEndian.Uint32(rec[:4])),
			X:  math.Float64frombits(binary.LittleEndian.Uint64(rec[4:12])),
			Y:  math.Float64frombits(binary.LittleEndian.Uint64(rec[12:20])),
		}
	}
	return pts
}

// Replay streams every logged update with ID > fromID, decoded and
// key-checked, to fn in ID order. A record addressed to a different
// key is refused with ErrKeyMismatch — never silently skipped.
func (d *Dataset) Replay(fromID uint64, fn func(id uint64, u dynamic.Update) error) error {
	// The log is internally gapless, so its first record tells whether
	// it still reaches back to the snapshot: a log starting past
	// fromID+1 lost a leading segment that no snapshot covers, and
	// replaying around the hole would serve silently-shortened history.
	if first := d.log.FirstID(); first > fromID+1 {
		return fmt.Errorf("%w: log starts at record %d but the snapshot covers only through %d", ErrCorrupt, first, fromID)
	}
	return d.log.Replay(func(id uint64, payload []byte) error {
		if id <= fromID {
			return nil // covered by the snapshot
		}
		req, err := server.DecodeUpdateBody(bytes.NewReader(payload), 0)
		if err != nil {
			return fmt.Errorf("%w: record %d payload: %v", ErrCorrupt, id, err)
		}
		if got := req.Key(); got != d.key {
			return fmt.Errorf("%w: record %d addressed to %s, dataset is %s", ErrKeyMismatch, id, got, d.key)
		}
		return fn(id, req.Ops())
	})
}

// PersistStats is the dynamic.Persister observability hook.
func (d *Dataset) PersistStats() dynamic.PersistStats {
	ls := d.log.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	return dynamic.PersistStats{
		Segments:       ls.Segments,
		Bytes:          ls.Bytes,
		Appends:        ls.Appends,
		Syncs:          ls.Syncs,
		Snapshots:      d.snapshots,
		LastSnapshotID: d.lastSnapID,
	}
}

// Close syncs and closes the dataset's log.
func (d *Dataset) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	return d.log.Close()
}

// Manager owns one data directory: a subdirectory per persisted
// dataset, named by the sanitized dataset name plus the key hash so
// distinct keys never collide.
type Manager struct {
	dir  string
	opts Options

	mu     sync.Mutex
	open   map[string]*Dataset
	closed bool
}

// OpenManager opens (creating if needed) the data directory.
func OpenManager(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{dir: dir, opts: opts, open: make(map[string]*Dataset)}, nil
}

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

// dirFor names the subdirectory of one key.
func (m *Manager) dirFor(key registry.Key) string {
	return filepath.Join(m.dir, fmt.Sprintf("%s-%016x", sanitize(key.Dataset), KeyHash(key)))
}

// sanitize maps a dataset name to a filesystem-safe slug (identity
// rests on the key hash suffix, so collisions here are harmless).
func sanitize(name string) string {
	if len(name) > 64 {
		name = name[:64]
	}
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "dataset"
	}
	return string(out)
}

// Open opens (or initializes) the dataset for key, reusing an
// already-open one. The key's generation is ignored.
func (m *Manager) Open(key registry.Key) (*Dataset, error) {
	key.Generation = 0
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("wal: manager is closed")
	}
	dir := m.dirFor(key)
	if d, ok := m.open[dir]; ok {
		return d, nil
	}
	d, err := openDataset(dir, key, m.opts)
	if err != nil {
		return nil, err
	}
	m.open[dir] = d
	return d, nil
}

// Keys enumerates the datasets persisted under the data dir (from
// their meta records), sorted by key string — the recovery worklist.
func (m *Manager) Keys() ([]registry.Key, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var keys []registry.Key
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(m.dir, e.Name(), metaName))
		if errors.Is(err, os.ErrNotExist) {
			continue // not a dataset directory
		}
		if err != nil {
			return nil, err
		}
		var mt meta
		if err := json.Unmarshal(raw, &mt); err != nil {
			return nil, fmt.Errorf("wal: %s: %w", filepath.Join(e.Name(), metaName), err)
		}
		keys = append(keys, mt.key())
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
	return keys, nil
}

// Close closes every open dataset. The manager is not reusable after.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var first error
	names := make([]string, 0, len(m.open))
	for name := range m.open {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := m.open[name].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeFileAtomic writes blob to path via a temp file, fsync, and
// rename, then fsyncs the directory — the standard crash-safe
// publish.
func writeFileAtomic(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

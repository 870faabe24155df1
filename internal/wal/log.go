// Package wal is the durability subsystem of the serving stack: an
// append-only write-ahead log of update batches, point-set snapshots,
// and the recovery path that rebuilds a dynamic store from the two.
//
// The on-disk record payload is the existing SRJU binary update
// encoding (internal/server/update_wire.go) — the same fuzz-hardened
// bytes that travel on POST /v1/update — wrapped in a CRC32C-framed
// envelope carrying the monotonic per-dataset update ID the router
// stamps. Layout of one dataset directory:
//
//	meta.json             the full engine key (identity of the log)
//	seg-<firstID>.wal     log segments, rotated at a size threshold
//	snap-<lastID>.srs     point-set snapshot covering IDs <= lastID
//
// A segment file is:
//
//	header  : magic uint32 ("SRJW"), version uint8, keyhash uint64
//	record* : crc uint32 (CRC32C of the remaining 12 header bytes and
//	          the payload), id uint64, len uint32, payload bytes
//
// All integers little-endian. The reader is torn-tail tolerant: a
// truncated or corrupt record in the *final* segment marks the clean
// end of the log (the tail is discarded on open, exactly like an
// aborted transaction), while corruption in an interior segment is a
// hard error — bytes fsynced before a later segment was created
// cannot legitimately be damaged by a crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segMagic   = uint32(0x53524a57) // "SRJW"
	segVersion = uint8(1)

	segHeaderLen = 4 + 1 + 8 // magic, version, keyhash
	recHeaderLen = 4 + 8 + 4 // crc, id, len
	segPrefix    = "seg-"
	segSuffix    = ".wal"

	// DefaultSegmentBytes is the rotation threshold: an active segment
	// past this size closes and a fresh one opens, bounding how much
	// pruning must keep and how much an interior-corruption blast
	// radius can be.
	DefaultSegmentBytes = int64(64 << 20)

	// syncInterval is the flush period of the SyncInterval policy.
	syncInterval = 100 * time.Millisecond

	// MaxRecordBytes bounds one record's payload so a corrupt length
	// field cannot force an unbounded allocation before the CRC check.
	MaxRecordBytes = 256 << 20
)

// castagnoli is the CRC32C polynomial table (the same checksum family
// storage systems use for on-disk framing; hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports damage the log refuses to read past: a bad
// segment header, or an invalid record anywhere but the final
// segment's tail.
var ErrCorrupt = errors.New("wal: log is corrupt")

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged update is
	// ever lost, at the cost of one fsync per batch.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs dirty segments on a background ticker, every
	// syncInterval: a crash loses at most one interval of acknowledged
	// updates.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS page cache decides.
	// Durability is then only as good as a clean process exit.
	SyncOff
)

// ParseSyncPolicy maps the -fsync flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "never":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return "always"
}

// Options parameterize a Log (and, through the Manager, every
// dataset's log under one data dir).
type Options struct {
	// SegmentBytes is the rotation threshold (<= 0 means
	// DefaultSegmentBytes).
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// KeyHash stamps every segment header; Open refuses segments whose
	// header hash differs — a moved or mislabeled directory fails fast
	// instead of replaying a different dataset's records.
	KeyHash uint64
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// segment is one on-disk log file. Records inside carry consecutive
// IDs; firstID is encoded in the filename so pruning and ordering
// never need to open the file.
type segment struct {
	name    string
	firstID uint64
	lastID  uint64 // last valid record ID; firstID-1 when empty
	size    int64  // valid byte size (header + intact records)
}

// Log is the append-only segment log of one dataset. All methods are
// safe for concurrent use; appends serialize internally.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []segment
	f       *os.File // active (final) segment, nil until first append
	dirty   bool     // active segment has unsynced bytes
	lastID  uint64   // last appended/recovered record ID
	appends uint64
	syncs   uint64
	closed  bool

	stop     chan struct{} // closes the SyncInterval flusher
	flushErr error         // first background fsync failure, surfaced on Close
	wg       sync.WaitGroup
}

// OpenLog opens (or initializes) the segment log in dir, scanning
// every segment, truncating a torn tail off the final one, and
// refusing interior corruption or a key-hash mismatch. dir must
// exist.
func OpenLog(dir string, opts Options) (*Log, error) {
	l := &Log{dir: dir, opts: opts}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// scan reads the directory, validates every segment in order, and
// truncates the final segment's torn tail (if any) on disk.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			return fmt.Errorf("%w: segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segment{name: name, firstID: first})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].firstID < segs[b].firstID })
	// A crash during rotation can leave a final segment shorter than
	// its own header (the file exists, the header write never landed).
	// It cannot hold records — drop it like any other torn tail.
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		fi, err := os.Stat(filepath.Join(l.dir, last.name))
		if err != nil {
			return err
		}
		if fi.Size() >= segHeaderLen {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, last.name)); err != nil {
			return err
		}
		segs = segs[:len(segs)-1]
	}
	prevLast := uint64(0)
	for i := range segs {
		s := &segs[i]
		if i > 0 && s.firstID != prevLast+1 {
			return fmt.Errorf("%w: segment %s starts at ID %d, want %d", ErrCorrupt, s.name, s.firstID, prevLast+1)
		}
		final := i == len(segs)-1
		if err := l.scanSegment(s, final); err != nil {
			return err
		}
		prevLast = s.lastID
	}
	l.segs = segs
	l.lastID = prevLast
	return nil
}

// scanSegment validates one segment file, filling lastID and size. On
// the final segment an invalid tail is truncated off the file; on an
// interior segment it is ErrCorrupt.
func (l *Log) scanSegment(s *segment, final bool) error {
	path := filepath.Join(l.dir, s.name)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("%w: segment %s header: %v", ErrCorrupt, s.name, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[:4]); m != segMagic {
		return fmt.Errorf("%w: segment %s has bad magic %#x", ErrCorrupt, s.name, m)
	}
	if v := hdr[4]; v != segVersion {
		return fmt.Errorf("%w: segment %s has unsupported version %d", ErrCorrupt, s.name, v)
	}
	if kh := binary.LittleEndian.Uint64(hdr[5:]); kh != l.opts.KeyHash {
		return fmt.Errorf("%w: segment %s key hash %#x does not match this dataset (%#x)", ErrCorrupt, s.name, kh, l.opts.KeyHash)
	}
	s.lastID = s.firstID - 1
	s.size = segHeaderLen
	next := s.firstID
	r := &countReader{r: f, n: segHeaderLen}
	for {
		id, _, err := readRecord(r, next, nil)
		if errors.Is(err, io.EOF) {
			break // clean end of segment
		}
		if err != nil {
			if !final {
				return fmt.Errorf("%w: segment %s record after ID %d: %v", ErrCorrupt, s.name, s.lastID, err)
			}
			// Torn tail: everything before this record is intact;
			// truncate the damage off so appends resume on a clean end.
			return os.Truncate(path, s.size)
		}
		s.lastID = id
		s.size = r.n
		next = id + 1
	}
	return nil
}

// countReader tracks the byte offset of the last fully-consumed
// record boundary.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readRecord consumes one record. wantID is the expected (consecutive)
// ID; 0 disables the check. A clean end-of-stream returns io.EOF; any
// other failure (short read, CRC mismatch, oversized length, ID out of
// sequence) is an error describing the damage. When into is non-nil
// the payload is appended to it and returned.
func readRecord(r io.Reader, wantID uint64, into []byte) (uint64, []byte, error) {
	var hdr [recHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("truncated record header: %w", err)
	}
	crc := binary.LittleEndian.Uint32(hdr[:4])
	id := binary.LittleEndian.Uint64(hdr[4:12])
	ln := binary.LittleEndian.Uint32(hdr[12:])
	if int64(ln) > MaxRecordBytes {
		return 0, nil, fmt.Errorf("record length %d exceeds bound", ln)
	}
	start := len(into)
	payload := append(into, make([]byte, ln)...)
	if _, err := io.ReadFull(r, payload[start:]); err != nil {
		return 0, nil, fmt.Errorf("truncated record payload: %w", err)
	}
	sum := crc32.Update(crc32.Checksum(hdr[4:], castagnoli), castagnoli, payload[start:])
	if sum != crc {
		return 0, nil, fmt.Errorf("record CRC mismatch (stored %#x, computed %#x)", crc, sum)
	}
	if wantID != 0 && id != wantID {
		return 0, nil, fmt.Errorf("record ID %d out of sequence (want %d)", id, wantID)
	}
	return id, payload[start:], nil
}

// openActive opens the final segment for appending, positioned at its
// valid end. No segments yet means the first Append creates one.
func (l *Log) openActive() error {
	if len(l.segs) == 0 {
		return nil
	}
	s := &l.segs[len(l.segs)-1]
	f, err := os.OpenFile(filepath.Join(l.dir, s.name), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Seek(s.size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f = f
	return nil
}

// Append writes one record. id must be exactly lastID+1 — the store
// stamps consecutive IDs, and the consecutive-ID invariant is what
// lets recovery distinguish a pruned prefix from a lost record.
func (l *Log) Append(id uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if id != l.lastID+1 {
		return fmt.Errorf("wal: append ID %d out of sequence (last applied %d)", id, l.lastID)
	}
	if int64(len(payload)) > MaxRecordBytes {
		return fmt.Errorf("wal: record payload %d bytes exceeds bound", len(payload))
	}
	rec := int64(recHeaderLen + len(payload))
	active := len(l.segs) - 1
	if l.f == nil || (l.segs[active].size+rec > l.opts.segmentBytes() && l.segs[active].size > segHeaderLen) {
		if err := l.rotateLocked(id); err != nil {
			return err
		}
		active = len(l.segs) - 1
	}
	buf := make([]byte, recHeaderLen, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint64(buf[4:12], id)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(payload)))
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[:4], crc32.Checksum(buf[4:], castagnoli))
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.segs[active].size += rec
	l.segs[active].lastID = id
	l.lastID = id
	l.appends++
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.syncs++
	case SyncInterval:
		l.dirty = true
	}
	return nil
}

// rotateLocked closes the active segment (fsyncing it regardless of
// policy — a sealed segment is immutable history) and opens a fresh
// one whose first record will be id. Called with mu held.
func (l *Log) rotateLocked(id uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.syncs++
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	name := fmt.Sprintf("%s%016x%s", segPrefix, id, segSuffix)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[5:], l.opts.KeyHash)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segment{name: name, firstID: id, lastID: id - 1, size: segHeaderLen})
	return nil
}

// Replay streams every intact record, in ID order, to fn. It re-reads
// from disk (recovery runs it once, before serving), holding the
// append lock for the duration.
func (l *Log) Replay(fn func(id uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.segs {
		s := &l.segs[i]
		if err := l.replaySegment(s, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(s *segment, fn func(id uint64, payload []byte) error) error {
	f, err := os.Open(filepath.Join(l.dir, s.name))
	if err != nil {
		return err
	}
	defer f.Close()
	// The header was validated at open; skip it. Reading is bounded by
	// the validated size so a torn tail past it (already truncated on
	// disk at open, but be defensive) is never re-read.
	r := io.LimitReader(f, s.size)
	if _, err := io.CopyN(io.Discard, r, segHeaderLen); err != nil {
		return fmt.Errorf("%w: segment %s header: %v", ErrCorrupt, s.name, err)
	}
	next := s.firstID
	for next <= s.lastID {
		id, payload, err := readRecord(r, next, nil)
		if err != nil {
			return fmt.Errorf("%w: segment %s record %d: %v", ErrCorrupt, s.name, next, err)
		}
		if err := fn(id, payload); err != nil {
			return err
		}
		next = id + 1
	}
	return nil
}

// Prune removes whole segments whose records are all covered by a
// snapshot at upTo. The active segment always survives (it holds the
// append position); partially-covered segments survive too — replay
// skips their covered prefix by ID.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	removed := false
	for i := range l.segs {
		s := l.segs[i]
		if i < len(l.segs)-1 && s.lastID <= upTo {
			if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// skipTo moves an empty log's next append to id+1: the history through
// id lives in a snapshot the log never held (an installed state). A
// log holding a segment keeps its own sequence.
func (l *Log) skipTo(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 && id > l.lastID {
		l.lastID = id
	}
}

// LastID reports the last appended (or recovered) record ID.
func (l *Log) LastID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastID
}

// FirstID reports the first record ID the log still holds (0 when the
// log is empty). Pruning moves it forward; the dataset layer checks it
// against the snapshot so a lost leading segment — indistinguishable
// from pruning down here — cannot silently shorten recovered history.
func (l *Log) FirstID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return 0
	}
	return l.segs[0].firstID
}

// LogStats is the observable state of one segment log.
type LogStats struct {
	Segments int
	Bytes    int64
	LastID   uint64
	Appends  uint64
	Syncs    uint64
}

// Stats snapshots the log's counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LogStats{Segments: len(l.segs), LastID: l.lastID, Appends: l.appends, Syncs: l.syncs}
	for _, s := range l.segs {
		st.Bytes += s.size
	}
	return st
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && l.f != nil && !l.closed {
				if err := l.f.Sync(); err != nil && l.flushErr == nil {
					l.flushErr = err
				}
				l.syncs++
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the active segment and stops the background
// flusher. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		l.wg.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushErr
	if l.f != nil {
		if serr := l.f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// syncDir fsyncs a directory so entry creations/removals survive a
// crash (the file-content fsync alone does not cover the dirent).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

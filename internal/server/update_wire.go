package server

// The compact binary encoding for bulk update transfer — the request
// sibling of the pair-stream encoding in wire.go. JSON spends ~50
// bytes per inserted point; a dataset ingesting millions of points
// should pay 20. The encoding is sectioned so encoders can stream
// batches without knowing totals up front:
//
//	header  : magic uint32 ("SRJU"), version uint8
//	key     : dsLen uint16, dataset bytes, algoLen uint16, algorithm
//	          bytes, l float64 bits, seed uint64
//	section : tag uint8 (1 insert_r, 2 insert_s, 3 delete_r,
//	          4 delete_s), count uint32 > 0, then count records —
//	          20-byte points (id, x, y) for inserts, 4-byte IDs for
//	          deletes. Sections repeat and accumulate.
//	end     : tag uint8 == 0
//
// All integers and floats are little-endian. Every count is bounded
// (MaxUpdateSectionOps per section, the caller's op cap in total), so
// a malicious body cannot force an unbounded allocation — the same
// discipline as MaxFramePairs on the sample stream.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
)

const (
	// updateMagic opens every binary update body.
	updateMagic = uint32(0x53524a55) // "SRJU"
	// updateVersion is bumped on incompatible format changes.
	updateVersion = uint8(1)
	// MaxUpdateSectionOps bounds one section's record count, so a
	// reader never allocates more than ~1.3 MiB before seeing bytes.
	MaxUpdateSectionOps = 1 << 16
	// maxUpdateStringLen bounds the dataset and algorithm names.
	maxUpdateStringLen = 1 << 10

	// ContentTypeUpdate is the media type of the framed update body.
	ContentTypeUpdate = "application/x-srj-update"

	updateTagEnd     = uint8(0)
	updateTagInsertR = uint8(1)
	updateTagInsertS = uint8(2)
	updateTagDeleteR = uint8(3)
	updateTagDeleteS = uint8(4)
)

// EncodeUpdateRequest writes req in the framed binary encoding. The
// Go client uses it for Format "binary"; any other producer can too.
func EncodeUpdateRequest(w io.Writer, req UpdateRequest) error {
	if len(req.Dataset) > maxUpdateStringLen || len(req.Algorithm) > maxUpdateStringLen {
		return fmt.Errorf("server: dataset or algorithm name exceeds %d bytes", maxUpdateStringLen)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], updateMagic)
	hdr[4] = updateVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeUpdateString(w, req.Dataset); err != nil {
		return err
	}
	if err := writeUpdateString(w, req.Algorithm); err != nil {
		return err
	}
	var fixed [16]byte
	binary.LittleEndian.PutUint64(fixed[:8], math.Float64bits(req.L))
	binary.LittleEndian.PutUint64(fixed[8:], req.Seed)
	if _, err := w.Write(fixed[:]); err != nil {
		return err
	}
	if err := writePointSections(w, updateTagInsertR, req.InsertR); err != nil {
		return err
	}
	if err := writePointSections(w, updateTagInsertS, req.InsertS); err != nil {
		return err
	}
	if err := writeIDSections(w, updateTagDeleteR, req.DeleteR); err != nil {
		return err
	}
	if err := writeIDSections(w, updateTagDeleteS, req.DeleteS); err != nil {
		return err
	}
	_, err := w.Write([]byte{updateTagEnd})
	return err
}

func writeUpdateString(w io.Writer, s string) error {
	var ln [2]byte
	binary.LittleEndian.PutUint16(ln[:], uint16(len(s)))
	if _, err := w.Write(ln[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// writePointSections emits pts under tag, splitting batches beyond
// MaxUpdateSectionOps so the writer never emits a section the reader
// is obliged to reject.
func writePointSections(w io.Writer, tag uint8, pts []geom.Point) error {
	for len(pts) > 0 {
		chunk := pts
		if len(chunk) > MaxUpdateSectionOps {
			chunk = chunk[:MaxUpdateSectionOps]
		}
		pts = pts[len(chunk):]
		buf := make([]byte, 5+geom.PointBytes*len(chunk))
		buf[0] = tag
		binary.LittleEndian.PutUint32(buf[1:5], uint32(len(chunk)))
		off := 5
		for _, p := range chunk {
			off += geom.PutPoint(buf[off:], p)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeIDSections emits ids under tag with the same splitting rule.
func writeIDSections(w io.Writer, tag uint8, ids []int32) error {
	for len(ids) > 0 {
		chunk := ids
		if len(chunk) > MaxUpdateSectionOps {
			chunk = chunk[:MaxUpdateSectionOps]
		}
		ids = ids[len(chunk):]
		buf := make([]byte, 5+4*len(chunk))
		buf[0] = tag
		binary.LittleEndian.PutUint32(buf[1:5], uint32(len(chunk)))
		off := 5
		for _, id := range chunk {
			binary.LittleEndian.PutUint32(buf[off:off+4], uint32(id))
			off += 4
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// DecodeUpdateBody consumes one framed binary update body. It fails
// on a malformed body, a section beyond MaxUpdateSectionOps, or more
// than maxOps total operations (maxOps <= 0 means
// DefaultMaxUpdateOps). It never allocates more than the bytes it
// has already validated describe.
func DecodeUpdateBody(r io.Reader, maxOps int) (UpdateRequest, error) {
	if maxOps <= 0 {
		maxOps = DefaultMaxUpdateOps
	}
	var req UpdateRequest
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return req, fmt.Errorf("server: reading update header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[:4]); m != updateMagic {
		return req, fmt.Errorf("server: bad update magic %#x", m)
	}
	if v := hdr[4]; v != updateVersion {
		return req, fmt.Errorf("server: unsupported update version %d", v)
	}
	var err error
	if req.Dataset, err = readUpdateString(r, "dataset"); err != nil {
		return req, err
	}
	if req.Algorithm, err = readUpdateString(r, "algorithm"); err != nil {
		return req, err
	}
	var fixed [16]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return req, fmt.Errorf("server: truncated update key: %w", err)
	}
	req.L = math.Float64frombits(binary.LittleEndian.Uint64(fixed[:8]))
	req.Seed = binary.LittleEndian.Uint64(fixed[8:])

	total := 0
	for {
		var tag [1]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return req, fmt.Errorf("server: update truncated mid-section: %w", err)
		}
		if tag[0] == updateTagEnd {
			return req, nil
		}
		if tag[0] > updateTagDeleteS {
			return req, fmt.Errorf("server: unknown update section tag %d", tag[0])
		}
		var cnt [4]byte
		if _, err := io.ReadFull(r, cnt[:]); err != nil {
			return req, fmt.Errorf("server: update truncated mid-section: %w", err)
		}
		n := binary.LittleEndian.Uint32(cnt[:])
		if n == 0 || n > MaxUpdateSectionOps {
			return req, fmt.Errorf("server: bad update section size %d", n)
		}
		if total += int(n); total > maxOps {
			return req, fmt.Errorf("server: update carries more than %d operations", maxOps)
		}
		switch tag[0] {
		case updateTagInsertR, updateTagInsertS:
			raw := make([]byte, geom.PointBytes*int(n))
			if _, err := io.ReadFull(r, raw); err != nil {
				return req, fmt.Errorf("server: update truncated mid-section: %w", err)
			}
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.GetPoint(raw[i*geom.PointBytes:])
			}
			if tag[0] == updateTagInsertR {
				req.InsertR = append(req.InsertR, pts...)
			} else {
				req.InsertS = append(req.InsertS, pts...)
			}
		case updateTagDeleteR, updateTagDeleteS:
			raw := make([]byte, 4*int(n))
			if _, err := io.ReadFull(r, raw); err != nil {
				return req, fmt.Errorf("server: update truncated mid-section: %w", err)
			}
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
			}
			if tag[0] == updateTagDeleteR {
				req.DeleteR = append(req.DeleteR, ids...)
			} else {
				req.DeleteS = append(req.DeleteS, ids...)
			}
		}
	}
}

func readUpdateString(r io.Reader, what string) (string, error) {
	var ln [2]byte
	if _, err := io.ReadFull(r, ln[:]); err != nil {
		return "", fmt.Errorf("server: truncated update %s: %w", what, err)
	}
	l := binary.LittleEndian.Uint16(ln[:])
	if l > maxUpdateStringLen {
		return "", fmt.Errorf("server: oversized update %s (%d bytes)", what, l)
	}
	b := make([]byte, l)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("server: truncated update %s: %w", what, err)
	}
	return string(b), nil
}

package server

// The compact binary encoding for bulk pair transfer. JSON spends
// ~100 bytes per sampled pair and most of the server's CPU in the
// encoder; a sampling service exists to move millions of pairs, so
// the wire format matters. The binary stream is framed so that the
// server can flush chunks as Engine.DrawFunc produces them and the
// client can consume them incrementally with bounded memory:
//
//	header : magic uint32 ("SRJP"), version uint8
//	frame  : count uint32 > 0, then count 40-byte pair records
//	         (r.id int32, r.x, r.y float64, s.id int32, s.x, s.y)
//	end    : count uint32 == 0 — the stream completed cleanly
//	error  : count uint32 == 0xFFFFFFFF, codeLen uint32, code bytes,
//	         msgLen uint32, msg bytes — the stream aborted after the
//	         header was sent
//
// All integers and floats are little-endian. The explicit end frame
// distinguishes a complete stream from a connection that died midway,
// and the error frame carries mid-stream failures that HTTP status
// codes cannot (the 200 header is long gone by then) — including the
// machine-readable error code, so errors.Is against the canonical
// sentinels works for mid-stream failures exactly as for pre-stream
// HTTP errors (version 2 added the code field).

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/geom"
)

const (
	// wireMagic opens every binary pair stream.
	wireMagic = uint32(0x53524a50) // "SRJP"
	// wireVersion is bumped on incompatible format changes (2: the
	// error frame grew a code field).
	wireVersion = uint8(2)
	// pairBytes is the encoded size of one pair record.
	pairBytes = 2 * geom.PointBytes
	// frameError marks an error frame's count field.
	frameError = uint32(0xFFFFFFFF)
	// MaxFramePairs bounds the pairs a reader accepts in one frame,
	// so a malicious stream cannot force an unbounded allocation. It
	// doubles as the preallocation cap for accumulating clients: a
	// larger t is client input the server has not validated yet, and
	// trusting it would reintroduce allocate-before-validate.
	MaxFramePairs = 1 << 16
	// maxErrorLen bounds an error frame's message.
	maxErrorLen = 1 << 16

	// ContentTypeBinary is the media type of the framed stream.
	ContentTypeBinary = "application/x-srj-pairs"
)

// WriteStreamHeader opens a binary pair stream. RespondSample writes
// every tier's draw stream with the Write* functions; they are
// exported for tools that encode the format outside a server (the
// benchmark's wire-encoding probe, test fixtures).
func WriteStreamHeader(w io.Writer) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], wireMagic)
	hdr[4] = wireVersion
	_, err := w.Write(hdr[:])
	return err
}

// WriteStreamFrame encodes a non-empty batch of pairs, splitting
// batches beyond MaxFramePairs across several frames so the writer
// can never emit a frame the reader is obliged to reject. scratch is
// reused across calls when large enough; the (possibly grown) buffer
// is returned.
func WriteStreamFrame(w io.Writer, pairs []geom.Pair, scratch []byte) ([]byte, error) {
	for len(pairs) > MaxFramePairs {
		var err error
		if scratch, err = WriteStreamFrame(w, pairs[:MaxFramePairs], scratch); err != nil {
			return scratch, err
		}
		pairs = pairs[MaxFramePairs:]
	}
	if len(pairs) == 0 {
		return scratch, nil
	}
	need := 4 + len(pairs)*pairBytes
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	buf := scratch[:need]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(pairs)))
	off := 4
	for _, p := range pairs {
		off += geom.PutPoint(buf[off:], p.R)
		off += geom.PutPoint(buf[off:], p.S)
	}
	_, err := w.Write(buf)
	return scratch, err
}

// WriteStreamEnd closes a binary pair stream cleanly.
func WriteStreamEnd(w io.Writer) error {
	var b [4]byte
	_, err := w.Write(b[:])
	return err
}

// WriteStreamError aborts a binary pair stream with a machine-readable
// code plus a message; the client surfaces both as a *StreamError.
func WriteStreamError(w io.Writer, code, msg string) error {
	if len(code) > maxErrorLen {
		code = code[:maxErrorLen]
	}
	if len(msg) > maxErrorLen {
		msg = msg[:maxErrorLen]
	}
	buf := make([]byte, 12+len(code)+len(msg))
	binary.LittleEndian.PutUint32(buf[:4], frameError)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(code)))
	off := 8 + copy(buf[8:], code)
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(msg)))
	copy(buf[off+4:], msg)
	_, err := w.Write(buf)
	return err
}

// StreamError is a mid-stream failure relayed through the binary
// transport's error frame — the HTTP 200 was already on the wire, so
// the status-code path of APIError is unavailable. Like APIError it
// unwraps onto the canonical sentinel its code names, keeping
// errors.Is behavior identical before and after the first frame.
type StreamError struct {
	Code    string // machine-readable error code (see the Code constants)
	Message string // the server's error text
	// RequestID echoes the X-SRJ-Request-ID of the stream's response
	// (filled client-side from the header; it does not travel in the
	// error frame itself).
	RequestID string
}

func (e *StreamError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server: remote error: %s (request %s)", e.Message, e.RequestID)
	}
	return fmt.Sprintf("server: remote error: %s", e.Message)
}

// Unwrap maps the error code onto its canonical sentinel.
func (e *StreamError) Unwrap() error { return sentinelFor(e.Code) }

// readErrorFrame consumes the code and message of an error frame
// (the frameError count is already read) and returns the
// *StreamError it describes.
func readErrorFrame(r io.Reader) (*StreamError, error) {
	readStr := func(what string) (string, error) {
		var ln [4]byte
		if _, err := io.ReadFull(r, ln[:]); err != nil {
			return "", fmt.Errorf("server: truncated error frame: %w", err)
		}
		l := binary.LittleEndian.Uint32(ln[:])
		if l > maxErrorLen {
			return "", fmt.Errorf("server: oversized error frame %s (%d bytes)", what, l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", fmt.Errorf("server: truncated error frame: %w", err)
		}
		return string(b), nil
	}
	code, err := readStr("code")
	if err != nil {
		return nil, err
	}
	msg, err := readStr("message")
	if err != nil {
		return nil, err
	}
	return &StreamError{Code: code, Message: msg}, nil
}

// readWireStream consumes a binary pair stream, invoking fn with
// each decoded batch (whose backing array is reused — fn must not
// retain it), and returns the total pair count. It fails on a
// malformed stream, an error frame, or an fn error.
func readWireStream(r io.Reader, fn func(batch []geom.Pair) error) (int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("server: reading stream header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[:4]); m != wireMagic {
		return 0, fmt.Errorf("server: bad stream magic %#x", m)
	}
	if v := hdr[4]; v != wireVersion {
		return 0, fmt.Errorf("server: unsupported stream version %d", v)
	}
	total := 0
	var batch []geom.Pair
	var raw []byte
	for {
		var cnt [4]byte
		if _, err := io.ReadFull(r, cnt[:]); err != nil {
			return total, fmt.Errorf("server: stream truncated mid-frame: %w", err)
		}
		n := binary.LittleEndian.Uint32(cnt[:])
		switch {
		case n == 0:
			return total, nil
		case n == frameError:
			serr, err := readErrorFrame(r)
			if err != nil {
				return total, err
			}
			return total, serr
		case n > MaxFramePairs:
			return total, fmt.Errorf("server: oversized frame (%d pairs)", n)
		}
		need := int(n) * pairBytes
		if cap(raw) < need {
			raw = make([]byte, need)
			batch = make([]geom.Pair, n)
		}
		raw = raw[:need]
		if _, err := io.ReadFull(r, raw); err != nil {
			return total, fmt.Errorf("server: stream truncated mid-frame: %w", err)
		}
		batch = batch[:n]
		for i := range batch {
			off := i * pairBytes
			batch[i].R = geom.GetPoint(raw[off:])
			batch[i].S = geom.GetPoint(raw[off+geom.PointBytes:])
		}
		total += int(n)
		if fn != nil {
			if err := fn(batch); err != nil {
				return total, err
			}
		}
	}
}

// Package wire implements the compact binary wire format for attributed
// traceroute results — the zero-allocation ingest path that lets archive
// replay run as fast as the delay engine instead of being bounded by
// encoding/json.
//
// A wire stream is a fixed header followed by length-prefixed frames:
//
//	stream  := header frame*
//	header  := magic(4) version(1) streamType(1)
//	frame   := uvarint(len(payload)) payload
//
// The header magic is {0x89 'L' 'M' 'W'}: the high first byte keeps a
// wire stream from ever being mistaken for JSON, CSV, or a gzip stream,
// mirroring PNG's signature trick. Frames are self-delimiting, so a
// reader can skip a frame without decoding it, an index over frame
// offsets is one linear scan of the length prefixes, and a writer can
// extend a stream by appending frames — which is how checkpoint
// segments grow a snapshot (see SnapshotWriter).
//
// All integers are canonical LEB128 varints (uvarint for counts and
// unsigned values, zigzag for signed ones); float64 bits travel as
// 8-byte little-endian fixed words so NaN payloads and signed zeros
// round-trip bit-identically. Canonical means minimal: a decoder
// rejects overlong encodings, so every value has exactly one byte
// representation and encoding is deterministic — encode(decode(b)) == b
// and decode(encode(r)) == r, which the codec fuzz and quick.Check
// properties pin.
//
// Versioning: the version byte covers the whole stream. Readers reject
// versions they do not know (ErrVersion) rather than guessing; adding
// fields to a frame is a version bump, not an in-place extension. The
// stream-type byte namespaces independent framings over the same
// container (traceroute results, CDN access logs) so a reader never
// silently decodes the wrong schema (ErrStreamType).
//
// Decoding is allocation-free in steady state: DecodeResultInto decodes
// into a caller-owned Result, reusing its hop and reply storage, and
// Scanner owns one Result that each Scan overwrites — the same
// EstimateInto/sync.Pool discipline the engine hot path uses, enforced
// statically by allocguard through the //lmvet:hotpath annotations on
// the decode roots and dynamically by the ingest benchmark gate.
package wire

import (
	"errors"
	"fmt"
)

// Header layout.
const (
	// Version is the current stream format version.
	Version = 1

	// StreamResults is the stream type carrying attributed traceroute
	// results (one AttributedResult per frame).
	StreamResults byte = 1
	// StreamCDNLog is the stream type carrying CDN access-log entries.
	StreamCDNLog byte = 2
	// StreamSnapshot is the stream type carrying serialized delay-engine
	// state: one meta frame (engine configuration, watermark, monotonic
	// counters) followed by one frame per resident (AS, probe) window,
	// optionally extended by checkpoint segments (see snapshot.go).
	StreamSnapshot byte = 3

	// HeaderLen is the byte length of the stream header.
	HeaderLen = 6

	// MaxFrame bounds a single frame's payload. A traceroute result is
	// a few hundred bytes; the bound exists so a corrupt length prefix
	// cannot make a reader buffer gigabytes.
	MaxFrame = 1 << 24
)

// Magic is the 4-byte stream signature.
var Magic = [4]byte{0x89, 'L', 'M', 'W'}

// Frame-level corruption errors. Every malformed input maps onto one of
// these typed sentinels (usually wrapped in a *CorruptError carrying the
// frame index and byte offset), never a panic and never a silent
// truncation.
var (
	// ErrBadMagic marks input that is not a wire stream at all.
	ErrBadMagic = errors.New("wire: bad magic (not a lastmile wire stream)")
	// ErrVersion marks a wire stream with an unsupported version byte.
	ErrVersion = errors.New("wire: unsupported stream version")
	// ErrStreamType marks a wire stream carrying a different schema than
	// the reader expects.
	ErrStreamType = errors.New("wire: unexpected stream type")
	// ErrShortFrame marks a stream that ends mid-header, mid-length, or
	// mid-payload — a truncated archive.
	ErrShortFrame = errors.New("wire: short frame (truncated stream)")
	// ErrFrameTooLarge marks a length prefix beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrOverlongVarint marks a non-canonical (non-minimal) varint.
	ErrOverlongVarint = errors.New("wire: overlong varint")
	// ErrTrailingBytes marks payload bytes left over after a frame
	// decoded cleanly — two frames glued together or a corrupt length.
	ErrTrailingBytes = errors.New("wire: trailing bytes after frame payload")
	// ErrBadFrame marks a structurally invalid frame body (bad address
	// tag, count overflow, bad proto tag).
	ErrBadFrame = errors.New("wire: malformed frame")
)

// CorruptError locates a frame-level decode failure: which frame (0-based)
// and at which byte offset within the stream the reader gave up. It wraps
// one of the sentinel errors above.
type CorruptError struct {
	// Frame is the 0-based index of the frame being decoded.
	Frame int
	// Offset is the stream byte offset where decoding stopped making
	// sense (the frame's length prefix for framing errors).
	Offset int64
	// Err is the underlying typed error.
	Err error
}

// Error renders the location and cause.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wire: frame %d (offset %d): %v", e.Frame, e.Offset, e.Err)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *CorruptError) Unwrap() error { return e.Err }

// corrupt wraps err with frame/offset context. Kept out of line so the
// hot decode loop only pays for it on the terminal error path.
func corrupt(frame int, off int64, err error) error {
	return &CorruptError{Frame: frame, Offset: off, Err: err} //lmvet:ignore allocguard terminal error path: the stream is over
}

// appendHeader appends the 6-byte stream header for the given type.
func appendHeader(dst []byte, streamType byte) []byte {
	dst = append(dst, Magic[0], Magic[1], Magic[2], Magic[3], Version, streamType)
	return dst
}

// checkHeader validates a stream header and returns its stream type.
func checkHeader(h []byte) (byte, error) {
	if len(h) < HeaderLen {
		return 0, ErrShortFrame
	}
	if h[0] != Magic[0] || h[1] != Magic[1] || h[2] != Magic[2] || h[3] != Magic[3] {
		return 0, ErrBadMagic
	}
	if h[4] != Version {
		return 0, ErrVersion
	}
	return h[5], nil
}

// IsMagic reports whether b begins with the wire stream signature —
// the sniff the format auto-detecting scanners use.
func IsMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == Magic[0] && b[1] == Magic[1] && b[2] == Magic[2] && b[3] == Magic[3]
}

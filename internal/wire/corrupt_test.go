package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// framed frames payloads after a header of the given type and returns
// the stream with the offset of every frame's length prefix.
func framed(typ byte, payloads [][]byte) ([]byte, []int64) {
	out := appendHeader(nil, typ)
	offs := make([]int64, len(payloads))
	for i, p := range payloads {
		offs[i] = int64(len(out))
		out = appendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out, offs
}

// TestCorruptPayloadNamesItsFrame: a payload that fails to decode is
// reported at its own 0-based frame index and the offset of its length
// prefix, as framing errors are, whether it is the first frame or a
// later one. Every scanner and ScanAll's batches must say so.
func TestCorruptPayloadNamesItsFrame(t *testing.T) {
	var results, logs, snapshot [][]byte
	for i, r := range sampleResults() {
		results = append(results, AppendResult(nil, bgp.ASN(64500+i), r))
	}
	for _, e := range sampleLogs() {
		logs = append(logs, AppendLog(nil, e))
	}
	snapshot = append(snapshot, AppendSnapshotMeta(nil, sampleSnapshotMeta()))
	for _, p := range sampleSnapshotProbes() {
		snapshot = append(snapshot, AppendSnapshotProbe(nil, p))
	}
	scanResults := func(stream []byte) error {
		sc := NewScanner(bytes.NewReader(stream))
		for sc.Scan() {
		}
		return sc.Err()
	}
	scanAllWith := func(workers, batch int) func([]byte) error {
		return func(stream []byte) error {
			return scanAll(bytes.NewReader(stream), func(*traceroute.Result, bgp.ASN) error { return nil }, workers, batch)
		}
	}
	readers := []struct {
		name     string
		typ      byte
		payloads [][]byte
		read     func([]byte) error
	}{
		{"Scanner", StreamResults, results, scanResults},
		{"ScanAll, one frame per batch", StreamResults, results, scanAllWith(4, 1)},
		{"ScanAll, default batches", StreamResults, results, scanAllWith(4, scanAllBatch)},
		{"LogScanner", StreamCDNLog, logs, func(stream []byte) error {
			sc := NewLogScanner(bytes.NewReader(stream))
			for sc.Scan() {
			}
			return sc.Err()
		}},
		{"SnapshotScanner", StreamSnapshot, snapshot, func(stream []byte) error {
			sc := NewSnapshotScanner(bytes.NewReader(stream))
			for sc.Scan() {
			}
			return sc.Err()
		}},
	}
	for _, rd := range readers {
		// Frame 0 of a snapshot is its meta frame, read by Meta.
		for _, bad := range []int{0, len(rd.payloads) - 1} {
			payloads := append([][]byte(nil), rd.payloads...)
			payloads[bad] = append(bytes.Clone(payloads[bad]), 0)
			stream, offs := framed(rd.typ, payloads)
			err := rd.read(stream)
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrTrailingBytes) {
				t.Fatalf("%s, frame %d bad: err = %v, want a located ErrTrailingBytes", rd.name, bad, err)
			}
			if ce.Frame != bad || ce.Offset != offs[bad] {
				t.Fatalf("%s: %v, want frame %d (offset %d)", rd.name, err, bad, offs[bad])
			}
		}
	}
}

// TestBatchFramesCapped: a run of frames too short to decode, such as
// the zeroes of a preallocated file, closes a batch at
// batchBytes/minResultPayload frames, so a batch's frames and results
// stay bounded however long the run; its decode fails at the run's
// first frame. minResultPayload must be the length of the shortest
// result payload.
func TestBatchFramesCapped(t *testing.T) {
	if n := len(AppendResult(nil, 0, &traceroute.Result{Timestamp: time.Unix(0, 0)})); n != minResultPayload {
		t.Fatalf("the shortest result payload is %d bytes, minResultPayload %d", n, minResultPayload)
	}
	maxFrames := scanAllBatch / minResultPayload
	header := appendHeader(nil, StreamResults)
	f := newFrameReader(bytes.NewReader(append(header, make([]byte, 3*maxFrames)...)))
	var b batch
	if !f.fill(&b, scanAllBatch) {
		t.Fatalf("fill ended the stream: %v", f.err)
	}
	if len(b.ends) != maxFrames {
		t.Fatalf("a batch of empty frames holds %d frames, want %d", len(b.ends), maxFrames)
	}
	b.Process()
	var ce *CorruptError
	if len(b.res) != 0 || !errors.As(b.err, &ce) || !errors.Is(b.err, ErrShortFrame) || ce.Frame != 0 || ce.Offset != int64(len(header)) {
		t.Fatalf("the batch decoded %d results and failed with %v, want frame 0 (offset %d) short", len(b.res), b.err, len(header))
	}
}

package wire

import (
	"bytes"
	"errors"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/cdn"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// FuzzWireRoundTrip fuzzes the decoders at both layers with the same
// input bytes.
//
// Payload layer: any bytes DecodeResultInto or DecodeLogInto accepts
// must re-encode to exactly the input — the encode(decode(b)) == b half
// of the codec's bijection, which only holds because every non-minimal
// varint, out-of-range count, and malformed address tag is rejected.
//
// Stream layer: Scanner and LogScanner must never panic, every frame
// they produce must survive its own round trip, and any terminal error
// must be one of the typed sentinels (usually located by CorruptError).
//
// Seed corpus: the f.Add seeds below plus testdata/fuzz/FuzzWireRoundTrip.
// scripts/check.sh runs a short -fuzz smoke pass over it.
func FuzzWireRoundTrip(f *testing.F) {
	for i, r := range sampleResults() {
		f.Add(AppendResult(nil, bgp.ASN(64500+i), r))
	}
	for _, e := range sampleLogs() {
		f.Add(AppendLog(nil, e))
	}
	// Whole streams: empty, single-frame, and all samples.
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamResults)
	for i, r := range sampleResults() {
		if err := w.WriteResult(bgp.ASN(64500+i), r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Snapshot frames and a whole snapshot stream: the checkpoint codec
	// faces the same adversarial inputs as the archive codecs.
	f.Add(AppendSnapshotMeta(nil, sampleSnapshotMeta()))
	for _, p := range sampleSnapshotProbes() {
		f.Add(AppendSnapshotProbe(nil, p))
	}
	f.Add(buildSnapshotArchive(f))
	f.Add(appendHeader(nil, StreamResults))
	f.Add(appendHeader(nil, StreamCDNLog))
	f.Add(appendHeader(nil, StreamSnapshot))
	f.Add([]byte{0x89, 'L', 'M'})
	// A truncated gzip envelope: the scanners read through MaybeGzip, so
	// a broken compression layer must also surface as a typed error.
	f.Add([]byte{0x1f, 0x8b})
	// Checkpoint segments: their frames alone, and a base followed by
	// segments, so the mutator also reaches the segment frames in place.
	for _, r := range sampleResidents() {
		f.Add(AppendSnapshotResident(nil, r))
	}
	f.Add(AppendSnapshotCommit(nil, sampleCommit()))
	f.Add(buildCheckpointArchive(f))

	sentinels := []error{
		ErrBadMagic, ErrVersion, ErrStreamType, ErrShortFrame,
		ErrFrameTooLarge, ErrOverlongVarint, ErrTrailingBytes, ErrBadFrame,
	}
	typed := func(err error) bool {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return true
			}
		}
		return false
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Payload-level canonicality.
		var r traceroute.Result
		if asn, err := DecodeResultInto(&r, data); err == nil {
			if enc := AppendResult(nil, asn, &r); !bytes.Equal(enc, data) {
				t.Fatalf("result payload decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !typed(err) {
			t.Fatalf("untyped result decode error: %v", err)
		}
		var e cdn.LogEntry
		if err := DecodeLogInto(&e, data); err == nil {
			if enc := AppendLog(nil, &e); !bytes.Equal(enc, data) {
				t.Fatalf("log payload decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !typed(err) {
			t.Fatalf("untyped log decode error: %v", err)
		}
		var sm SnapshotMeta
		if err := DecodeSnapshotMetaInto(&sm, data); err == nil {
			if enc := AppendSnapshotMeta(nil, &sm); !bytes.Equal(enc, data) {
				t.Fatalf("snapshot meta decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !typed(err) {
			t.Fatalf("untyped snapshot meta decode error: %v", err)
		}
		var sp SnapshotProbe
		if err := DecodeSnapshotProbeInto(&sp, data); err == nil {
			if enc := AppendSnapshotProbe(nil, &sp); !bytes.Equal(enc, data) {
				t.Fatalf("snapshot probe decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !typed(err) {
			t.Fatalf("untyped snapshot probe decode error: %v", err)
		}

		var sr SnapshotResident
		if err := DecodeSnapshotResidentInto(&sr, data); err == nil {
			if enc := AppendSnapshotResident(nil, &sr); !bytes.Equal(enc, data) {
				t.Fatalf("snapshot resident decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !typed(err) {
			t.Fatalf("untyped snapshot resident decode error: %v", err)
		}
		var sco SnapshotCommit
		if err := DecodeSnapshotCommitInto(&sco, data); err == nil {
			if enc := AppendSnapshotCommit(nil, &sco); !bytes.Equal(enc, data) {
				t.Fatalf("snapshot commit decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !typed(err) {
			t.Fatalf("untyped snapshot commit decode error: %v", err)
		}

		// Stream level: never panic, every scanned frame round-trips,
		// every failure is typed.
		sc := NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			enc := AppendResult(nil, sc.ASN(), sc.Result())
			var back traceroute.Result
			if asn, err := DecodeResultInto(&back, enc); err != nil || asn != sc.ASN() {
				t.Fatalf("scanned frame failed its round trip: %v", err)
			}
		}
		if err := sc.Err(); err != nil && !typed(err) {
			t.Fatalf("untyped scanner error: %v", err)
		}
		ls := NewLogScanner(bytes.NewReader(data))
		for ls.Scan() {
		}
		if err := ls.Err(); err != nil && !typed(err) {
			t.Fatalf("untyped log scanner error: %v", err)
		}
		ss := NewSnapshotScanner(bytes.NewReader(data))
		for ss.Scan() {
		}
		if err := ss.Err(); err != nil && !typed(err) {
			t.Fatalf("untyped snapshot scanner error: %v", err)
		}
	})
}

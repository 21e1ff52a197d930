package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

func sampleSnapshotMeta() *SnapshotMeta {
	return &SnapshotMeta{
		BinWidth:       30 * time.Minute,
		MinTraceroutes: 3,
		Window:         15 * 24 * time.Hour,
		MaxLateness:    time.Hour,
		HasNewest:      true,
		NewestNano:     time.Date(2020, 2, 7, 11, 29, 3, 500, time.UTC).UnixNano(),
		Ingested:       12345,
		Dropped:        17,
		EvictedBins:    890,
	}
}

func sampleSnapshotProbes() []*SnapshotProbe {
	// Valid two-heap states, the only layouts the decoder accepts. The
	// first is not the canonical one an engine writes today (lower half
	// descending): it is what an engine that kept live heaps wrote for
	// the samples 4.5, 2.25, 9, 1.125, 2.25 in that order.
	return []*SnapshotProbe{
		{ASN: 64500, ProbeID: 1, Bins: []SnapshotBin{
			{Key: 1580986800, Groups: 3, Lo: []float64{2.25, 1.125, 2.25}, Hi: []float64{4.5, 9}},
			{Key: 1580988600, Groups: 1, Lo: []float64{0.5}, Hi: nil},
		}},
		{ASN: 64501, ProbeID: -2, Bins: []SnapshotBin{
			{Key: -1800, Groups: 4, Lo: []float64{7, 7}, Hi: []float64{7, 8}},
		}},
		{ASN: 64502, ProbeID: 9, Bins: nil},
	}
}

// buildSnapshotArchive frames the sample snapshot into a byte archive.
func buildSnapshotArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf)
	if err := sw.WriteMeta(sampleSnapshotMeta()); err != nil {
		t.Fatal(err)
	}
	for _, p := range sampleSnapshotProbes() {
		if err := sw.WriteProbe(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotStreamRoundTrip(t *testing.T) {
	arch := buildSnapshotArchive(t)
	sc := NewSnapshotScanner(bytes.NewReader(arch))
	meta, err := sc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if *meta != *sampleSnapshotMeta() {
		t.Fatalf("meta = %+v, want %+v", meta, sampleSnapshotMeta())
	}
	want := sampleSnapshotProbes()
	var got int
	for sc.Scan() {
		p := sc.Probe()
		w := want[got]
		if p.ASN != w.ASN || p.ProbeID != w.ProbeID || len(p.Bins) != len(w.Bins) {
			t.Fatalf("probe %d = {%v %d %d bins}, want {%v %d %d bins}",
				got, p.ASN, p.ProbeID, len(p.Bins), w.ASN, w.ProbeID, len(w.Bins))
		}
		// Re-encoding the decoded frame must reproduce the original
		// payload byte for byte — the encode(decode(b)) == b half of the
		// bijection, per frame.
		if enc, orig := AppendSnapshotProbe(nil, p), AppendSnapshotProbe(nil, w); !bytes.Equal(enc, orig) {
			t.Fatalf("probe %d re-encoded differently:\n in %x\nout %x", got, orig, enc)
		}
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("scanned %d probe frames, want %d", got, len(want))
	}
}

func TestSnapshotMetaCanonicalNoWatermark(t *testing.T) {
	m := &SnapshotMeta{BinWidth: time.Second, MinTraceroutes: 1}
	payload := AppendSnapshotMeta(nil, m)
	var back SnapshotMeta
	if err := DecodeSnapshotMetaInto(&back, payload); err != nil {
		t.Fatal(err)
	}
	if back != *m {
		t.Fatalf("round trip: %+v vs %+v", back, m)
	}
	if enc := AppendSnapshotMeta(nil, &back); !bytes.Equal(enc, payload) {
		t.Fatalf("non-canonical meta encoding")
	}
}

func TestSnapshotWriterRequiresMetaFirst(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf)
	if err := sw.WriteProbe(sampleSnapshotProbes()[0]); err == nil {
		t.Fatal("probe frame before meta must fail")
	}
	if err := sw.Flush(); err == nil {
		t.Fatal("flushing a snapshot without its meta frame must fail")
	}
	if buf.Len() != 0 {
		t.Fatalf("misused writer emitted %d bytes", buf.Len())
	}
}

func TestSnapshotScannerTruncatedBeforeMeta(t *testing.T) {
	// A header-only snapshot stream is a truncated snapshot: the meta
	// frame is mandatory.
	sc := NewSnapshotScanner(bytes.NewReader(appendHeader(nil, StreamSnapshot)))
	if _, err := sc.Meta(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("Meta on header-only stream = %v, want ErrShortFrame", err)
	}
	if sc.Scan() {
		t.Fatal("Scan succeeded on header-only stream")
	}
}

func TestSnapshotScannerRejectsSecondMeta(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamSnapshot)
	meta := AppendSnapshotMeta(nil, sampleSnapshotMeta())
	for i := 0; i < 2; i++ {
		if err := w.writeFrame(meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewSnapshotScanner(bytes.NewReader(buf.Bytes()))
	if sc.Scan() {
		t.Fatal("scanned a meta frame as a probe window")
	}
	if err := sc.Err(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// TestSnapshotStreamCorruptionTable mutates a valid snapshot archive
// and asserts every corruption maps onto its typed sentinel.
func TestSnapshotStreamCorruptionTable(t *testing.T) {
	arch := buildSnapshotArchive(t)
	mutate := func(mut func([]byte)) []byte {
		b := append([]byte(nil), arch...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) { b[4] = 99 }), ErrVersion},
		{"results stream type", mutate(func(b []byte) { b[5] = StreamResults }), ErrStreamType},
		{"unknown stream type", mutate(func(b []byte) { b[5] = 200 }), ErrStreamType},
		{"truncated header", arch[:4], ErrShortFrame},
		{"truncated mid-frame", arch[:len(arch)-3], ErrShortFrame},
		{"truncated at length", arch[:HeaderLen+1], ErrShortFrame},
		{"oversized length", append(append([]byte(nil), arch[:HeaderLen]...), 0xff, 0xff, 0xff, 0xff, 0x7f), ErrFrameTooLarge},
		{"overlong length", append(append([]byte(nil), arch[:HeaderLen]...), 0x80, 0x00), ErrOverlongVarint},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewSnapshotScanner(bytes.NewReader(tc.data))
			for sc.Scan() {
			}
			if err := sc.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// snapshotSentinels is the full typed-error contract of the snapshot
// decoders: every rejection must be one of these.
func isTypedWireError(err error) bool {
	for _, s := range []error{
		ErrBadMagic, ErrVersion, ErrStreamType, ErrShortFrame,
		ErrFrameTooLarge, ErrOverlongVarint, ErrTrailingBytes, ErrBadFrame,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestSnapshotPayloadCorruptionExhaustive runs the payload decoders
// over every truncation and every single-byte mutation of the sample
// frames: each must either decode canonically or fail with a typed
// error — never panic, never decode to something that re-encodes
// differently.
func TestSnapshotPayloadCorruptionExhaustive(t *testing.T) {
	payloads := [][]byte{AppendSnapshotMeta(nil, sampleSnapshotMeta())}
	for _, p := range sampleSnapshotProbes() {
		payloads = append(payloads, AppendSnapshotProbe(nil, p))
	}
	check := func(data []byte) {
		t.Helper()
		var m SnapshotMeta
		if err := DecodeSnapshotMetaInto(&m, data); err == nil {
			if enc := AppendSnapshotMeta(nil, &m); !bytes.Equal(enc, data) {
				t.Fatalf("meta decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !isTypedWireError(err) {
			t.Fatalf("untyped meta decode error on %x: %v", data, err)
		}
		var p SnapshotProbe
		if err := DecodeSnapshotProbeInto(&p, data); err == nil {
			if enc := AppendSnapshotProbe(nil, &p); !bytes.Equal(enc, data) {
				t.Fatalf("probe decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !isTypedWireError(err) {
			t.Fatalf("untyped probe decode error on %x: %v", data, err)
		}
	}
	for _, payload := range payloads {
		for cut := 0; cut < len(payload); cut++ {
			check(payload[:cut])
		}
		for i := 0; i < len(payload); i++ {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				b := append([]byte(nil), payload...)
				b[i] ^= flip
				check(b)
			}
		}
	}
}

func TestSnapshotDecodeRejectsBrokenHeapState(t *testing.T) {
	// Hand-build a probe frame whose heap state violates the two-heap
	// partition (lower-half max 9 > upper-half min 1): structurally
	// valid wire bytes, semantically impossible engine state.
	payload := []byte{snapTagProbe}
	payload = appendUvarint(payload, 64500)
	payload = appendZigzag(payload, 1)
	payload = appendUvarint(payload, 1) // one bin
	payload = appendZigzag(payload, 1800)
	payload = appendUvarint(payload, 1) // groups
	payload = appendUvarint(payload, 1) // nlo
	payload = appendUvarint(payload, 1) // nhi
	var w [8]byte
	putFloat := func(v float64) {
		for i, b := range f64bytes(v, w[:]) {
			_ = i
			payload = append(payload, b)
		}
	}
	putFloat(9)
	putFloat(1)
	var p SnapshotProbe
	if err := DecodeSnapshotProbeInto(&p, payload); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// f64bytes renders v as the codec's fixed 8-byte little-endian word.
func f64bytes(v float64, dst []byte) []byte {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst[i] = byte(bits >> (8 * i))
	}
	return dst[:8]
}

func TestSnapshotDecodeRejectsUnsortedBinKeys(t *testing.T) {
	p := &SnapshotProbe{ASN: 1, ProbeID: 1, Bins: []SnapshotBin{
		{Key: 3600, Groups: 1},
		{Key: 1800, Groups: 1},
	}}
	payload := AppendSnapshotProbe(nil, p)
	var back SnapshotProbe
	if err := DecodeSnapshotProbeInto(&back, payload); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestSnapshotDecodeRejectsZeroBinWidth(t *testing.T) {
	m := &SnapshotMeta{BinWidth: 0}
	payload := AppendSnapshotMeta(nil, m)
	var back SnapshotMeta
	if err := DecodeSnapshotMetaInto(&back, payload); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

// TestSnapshotDecodeRejectsSubSecondBinWidth pins that a bin width the
// engine cannot key — not a whole number of seconds — is a corrupt
// frame, not a restored engine that divides by zero on its first use.
func TestSnapshotDecodeRejectsSubSecondBinWidth(t *testing.T) {
	for _, w := range []time.Duration{500 * time.Millisecond, 90*time.Second + time.Nanosecond} {
		payload := AppendSnapshotMeta(nil, &SnapshotMeta{BinWidth: w})
		var back SnapshotMeta
		if err := DecodeSnapshotMetaInto(&back, payload); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("width %v: err = %v, want ErrBadFrame", w, err)
		}
	}
}

func TestSnapshotDecodeRejectsWrongTag(t *testing.T) {
	meta := AppendSnapshotMeta(nil, sampleSnapshotMeta())
	probe := AppendSnapshotProbe(nil, sampleSnapshotProbes()[0])
	var m SnapshotMeta
	if err := DecodeSnapshotMetaInto(&m, probe); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("meta decoder accepted a probe frame: %v", err)
	}
	var p SnapshotProbe
	if err := DecodeSnapshotProbeInto(&p, meta); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("probe decoder accepted a meta frame: %v", err)
	}
	if err := DecodeSnapshotMetaInto(&m, nil); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("meta decoder on empty payload: %v", err)
	}
	if err := DecodeSnapshotProbeInto(&p, nil); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("probe decoder on empty payload: %v", err)
	}
}

// TestSnapshotScannerReusesStorage pins the valid-until-next-Scan
// contract: steady-state scanning of uniform probe frames allocates
// nothing once buffers reach capacity.
func TestSnapshotScannerReusesStorage(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf)
	if err := sw.WriteMeta(sampleSnapshotMeta()); err != nil {
		t.Fatal(err)
	}
	lo, hi := []float64{3, 1, 2}, []float64{4, 5}
	for i := 0; i < 64; i++ {
		p := &SnapshotProbe{ASN: 64500, ProbeID: i, Bins: []SnapshotBin{{Key: 1800, Groups: 3, Lo: lo, Hi: hi}}}
		if err := sw.WriteProbe(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewSnapshotScanner(bytes.NewReader(buf.Bytes()))
	if _, err := sc.Meta(); err != nil {
		t.Fatal(err)
	}
	// Warm up the reused buffers, then the remaining frames must not
	// allocate in the decode path.
	if !sc.Scan() {
		t.Fatal(sc.Err())
	}
	allocs := testing.AllocsPerRun(50, func() {
		if !sc.Scan() {
			t.Fatal("stream exhausted mid-measurement")
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Scan allocates %v times per call", allocs)
	}
}

func sampleResidents() []*SnapshotResident {
	return []*SnapshotResident{
		{ASN: 64500, Probes: []ResidentProbe{{ProbeID: 1, Low: 1580986800}, {ProbeID: 4, Low: 1580988600}}},
		{ASN: 64501, Probes: []ResidentProbe{{ProbeID: -2, Low: -1800}}},
	}
}

func sampleCommit() *SnapshotCommit {
	return &SnapshotCommit{
		NewestNano: time.Date(2020, 2, 7, 12, 1, 0, 0, time.UTC).UnixNano(),
		Ingested:   12400, Dropped: 17, EvictedBins: 893,
	}
}

// buildCheckpointArchive appends two segments to the sample snapshot,
// the layout a checkpointer leaves: base, then per segment the mark,
// resident and probe frames, and the commit.
func buildCheckpointArchive(t testing.TB) []byte {
	t.Helper()
	buf := bytes.NewBuffer(buildSnapshotArchive(t))
	for i := 0; i < 2; i++ {
		sw := NewSegmentWriter(buf)
		if err := sw.WriteMark(); err != nil {
			t.Fatal(err)
		}
		for _, r := range sampleResidents() {
			if err := sw.WriteResident(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.WriteProbe(sampleSnapshotProbes()[i]); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteCommit(sampleCommit()); err != nil {
			t.Fatal(err)
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSnapshotSegmentRoundTrip scans a base followed by two segments:
// every frame comes back with its kind, and re-encodes to the bytes it
// was written as.
func TestSnapshotSegmentRoundTrip(t *testing.T) {
	arch := buildCheckpointArchive(t)
	sc := NewSnapshotScanner(bytes.NewReader(arch))
	var kinds []SnapshotFrame
	var payloads [][]byte
	for sc.Scan() {
		kinds = append(kinds, sc.Frame())
		switch sc.Frame() {
		case ProbeFrame:
			payloads = append(payloads, AppendSnapshotProbe(nil, sc.Probe()))
		case ResidentFrame:
			payloads = append(payloads, AppendSnapshotResident(nil, sc.Resident()))
		case CommitFrame:
			payloads = append(payloads, AppendSnapshotCommit(nil, sc.Commit()))
		case MarkFrame:
			payloads = append(payloads, nil)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	probes, residents := sampleSnapshotProbes(), sampleResidents()
	want := []SnapshotFrame{ProbeFrame, ProbeFrame, ProbeFrame}
	wantPayloads := [][]byte{
		AppendSnapshotProbe(nil, probes[0]), AppendSnapshotProbe(nil, probes[1]), AppendSnapshotProbe(nil, probes[2]),
	}
	for i := 0; i < 2; i++ {
		want = append(want, MarkFrame, ResidentFrame, ResidentFrame, ProbeFrame, CommitFrame)
		wantPayloads = append(wantPayloads, nil,
			AppendSnapshotResident(nil, residents[0]), AppendSnapshotResident(nil, residents[1]),
			AppendSnapshotProbe(nil, probes[i]), AppendSnapshotCommit(nil, sampleCommit()))
	}
	if len(kinds) != len(want) {
		t.Fatalf("scanned %d frames %v, want %d %v", len(kinds), kinds, len(want), want)
	}
	for i := range want {
		if kinds[i] != want[i] || !bytes.Equal(payloads[i], wantPayloads[i]) {
			t.Fatalf("frame %d: kind %v, payload %x; want %v, %x", i, kinds[i], payloads[i], want[i], wantPayloads[i])
		}
	}
	// The base is the snapshot's own bytes: segments only extend it.
	if base := buildSnapshotArchive(t); !bytes.Equal(arch[:len(base)], base) {
		t.Fatal("segments rewrote the base")
	}
}

// TestSegmentPayloadCorruptionExhaustive runs the resident and commit
// decoders over every truncation and single-byte mutation of their
// sample payloads: each must decode canonically or fail typed.
func TestSegmentPayloadCorruptionExhaustive(t *testing.T) {
	payloads := [][]byte{AppendSnapshotCommit(nil, sampleCommit())}
	for _, r := range sampleResidents() {
		payloads = append(payloads, AppendSnapshotResident(nil, r))
	}
	check := func(data []byte) {
		t.Helper()
		var r SnapshotResident
		if err := DecodeSnapshotResidentInto(&r, data); err == nil {
			if enc := AppendSnapshotResident(nil, &r); !bytes.Equal(enc, data) {
				t.Fatalf("resident decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !isTypedWireError(err) {
			t.Fatalf("untyped resident decode error on %x: %v", data, err)
		}
		var c SnapshotCommit
		if err := DecodeSnapshotCommitInto(&c, data); err == nil {
			if enc := AppendSnapshotCommit(nil, &c); !bytes.Equal(enc, data) {
				t.Fatalf("commit decoded non-canonically:\n in %x\nout %x", data, enc)
			}
		} else if !isTypedWireError(err) {
			t.Fatalf("untyped commit decode error on %x: %v", data, err)
		}
	}
	for _, payload := range payloads {
		for cut := 0; cut < len(payload); cut++ {
			check(payload[:cut])
		}
		for i := 0; i < len(payload); i++ {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				b := append([]byte(nil), payload...)
				b[i] ^= flip
				check(b)
			}
		}
	}
}

func TestSnapshotResidentRejectsNonCanonicalLists(t *testing.T) {
	for name, r := range map[string]*SnapshotResident{
		"no probes":       {ASN: 1},
		"unsorted probes": {ASN: 1, Probes: []ResidentProbe{{ProbeID: 3, Low: 0}, {ProbeID: 2, Low: 0}}},
		"repeated probe":  {ASN: 1, Probes: []ResidentProbe{{ProbeID: 3, Low: 0}, {ProbeID: 3, Low: 1800}}},
	} {
		var back SnapshotResident
		if err := DecodeSnapshotResidentInto(&back, AppendSnapshotResident(nil, r)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	var r SnapshotResident
	if err := DecodeSnapshotResidentInto(&r, AppendSnapshotCommit(nil, sampleCommit())); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("resident decoder accepted a commit frame: %v", err)
	}
	var c SnapshotCommit
	if err := DecodeSnapshotCommitInto(&c, AppendSnapshotResident(nil, sampleResidents()[0])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("commit decoder accepted a resident frame: %v", err)
	}
	// An unknown tag after the meta frame is a malformed frame, the way
	// a reader that predates segments sees resident and commit frames.
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamSnapshot)
	for _, payload := range [][]byte{AppendSnapshotMeta(nil, sampleSnapshotMeta()), {4, 0}} {
		if err := w.writeFrame(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewSnapshotScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
	}
	if err := sc.Err(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown tag: err = %v, want ErrBadFrame", err)
	}
}

func TestValidateHeapStateRejectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi []float64
		want   error
	}{
		{"nan", []float64{math.NaN()}, nil, errNotFinite},
		{"inf", []float64{1}, []float64{math.Inf(1)}, errNotFinite},
		{"unbalanced", []float64{3, 2, 1}, nil, errHeapInvariant},
		{"lower-not-max-heap", []float64{1, 5}, []float64{7}, errHeapInvariant},
		{"upper-not-min-heap", []float64{1}, []float64{9, 2}, errHeapInvariant},
		{"overlap", []float64{5}, []float64{3}, errHeapInvariant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := validateHeapState(tc.lo, tc.hi); !errors.Is(err, tc.want) {
				t.Fatalf("validateHeapState = %v, want %v", err, tc.want)
			}
		})
	}
	if err := validateHeapState([]float64{2, 1}, []float64{3}); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := validateHeapState(nil, nil); err != nil {
		t.Fatalf("empty state rejected: %v", err)
	}
}

package wire

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/cdn"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// sampleResults covers the codec's shape space: a full v4 traceroute,
// a v6 one with NaN timeout RTTs, an empty result, and a v4-mapped-in-6
// address (tag6 on the wire, since netip keeps it distinct from pure v4).
func sampleResults() []*traceroute.Result {
	full := &traceroute.Result{
		ProbeID:   101,
		MsmID:     5010,
		Timestamp: time.Date(2019, 9, 19, 12, 30, 0, 250, time.UTC),
		AF:        4,
		SrcAddr:   netip.MustParseAddr("192.168.1.10"),
		FromAddr:  netip.MustParseAddr("203.0.113.99"),
		DstAddr:   netip.MustParseAddr("193.0.14.129"),
		Proto:     "ICMP",
		Hops: []traceroute.HopResult{
			{Hop: 1, Replies: []traceroute.Reply{
				{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.52, TTL: 64},
				{Timeout: true, RTT: math.NaN()},
				{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.61, TTL: 64},
			}},
			{Hop: 2, Replies: []traceroute.Reply{
				{From: netip.MustParseAddr("203.0.113.1"), RTT: 12.75, TTL: 254},
			}},
			{Hop: 3},
		},
	}
	v6 := &traceroute.Result{
		ProbeID:   -7,
		MsmID:     6010,
		Timestamp: time.Unix(1568894400, 999999999).UTC(),
		AF:        6,
		SrcAddr:   netip.MustParseAddr("2001:db8::5"),
		DstAddr:   netip.MustParseAddr("2001:db8::1"),
		Proto:     "UDP",
		Hops: []traceroute.HopResult{
			{Hop: 1, Replies: []traceroute.Reply{
				{Timeout: true, RTT: math.NaN()},
				{From: netip.MustParseAddr("2001:db8::1"), RTT: 0.7, TTL: 64},
			}},
		},
	}
	mapped := &traceroute.Result{
		Timestamp: time.Unix(0, 0).UTC(),
		FromAddr:  netip.AddrFrom16(netip.MustParseAddr("::ffff:1.2.3.4").As16()),
		Proto:     "weird/proto",
	}
	empty := &traceroute.Result{Timestamp: time.Unix(0, 0).UTC()}
	return []*traceroute.Result{full, v6, mapped, empty}
}

func sampleLogs() []*cdn.LogEntry {
	return []*cdn.LogEntry{
		{
			Timestamp:  time.Date(2019, 9, 19, 0, 15, 0, 0, time.UTC),
			ClientIP:   netip.MustParseAddr("203.98.0.17"),
			Bytes:      5 << 20,
			DurationMs: 812.5,
			Status:     200,
			Cache:      cdn.Hit,
		},
		{
			Timestamp:  time.Unix(1568894400, 123456789).UTC(),
			ClientIP:   netip.MustParseAddr("2001:db8::99"),
			Bytes:      -1,
			DurationMs: math.Inf(1),
			Status:     304,
			Cache:      cdn.Miss,
		},
		{Timestamp: time.Unix(0, 0).UTC()},
	}
}

// resultEqual compares results field by field, comparing RTTs by bit
// pattern (NaN payloads must survive) and treating nil and empty slices
// as equal.
func resultEqual(a, b *traceroute.Result) bool {
	if a.ProbeID != b.ProbeID || a.MsmID != b.MsmID || a.AF != b.AF ||
		!a.Timestamp.Equal(b.Timestamp) || a.Proto != b.Proto ||
		a.SrcAddr != b.SrcAddr || a.FromAddr != b.FromAddr || a.DstAddr != b.DstAddr {
		return false
	}
	if len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		ha, hb := &a.Hops[i], &b.Hops[i]
		if ha.Hop != hb.Hop || len(ha.Replies) != len(hb.Replies) {
			return false
		}
		for j := range ha.Replies {
			ra, rb := &ha.Replies[j], &hb.Replies[j]
			if ra.Timeout != rb.Timeout || ra.From != rb.From || ra.TTL != rb.TTL ||
				math.Float64bits(ra.RTT) != math.Float64bits(rb.RTT) {
				return false
			}
		}
	}
	return true
}

func logEqual(a, b *cdn.LogEntry) bool {
	return a.Timestamp.Equal(b.Timestamp) && a.ClientIP == b.ClientIP &&
		a.Bytes == b.Bytes && a.Status == b.Status && a.Cache == b.Cache &&
		math.Float64bits(a.DurationMs) == math.Float64bits(b.DurationMs)
}

func TestResultPayloadBijection(t *testing.T) {
	var reused traceroute.Result
	for i, r := range sampleResults() {
		asn := bgp.ASN(64500 + i)
		enc := AppendResult(nil, asn, r)
		gotASN, err := DecodeResultInto(&reused, enc)
		if err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if gotASN != asn {
			t.Fatalf("sample %d: asn %d -> %d", i, asn, gotASN)
		}
		if !resultEqual(r, &reused) {
			t.Fatalf("sample %d: decode(encode(r)) != r:\n%+v\n%+v", i, r, &reused)
		}
		enc2 := AppendResult(nil, gotASN, &reused)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("sample %d: encode(decode(b)) != b:\n%x\n%x", i, enc, enc2)
		}
	}
}

func TestLogPayloadBijection(t *testing.T) {
	var reused cdn.LogEntry
	for i, e := range sampleLogs() {
		enc := AppendLog(nil, e)
		if err := DecodeLogInto(&reused, enc); err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if !logEqual(e, &reused) {
			t.Fatalf("sample %d: decode(encode(e)) != e:\n%+v\n%+v", i, e, &reused)
		}
		enc2 := AppendLog(nil, &reused)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("sample %d: encode(decode(b)) != b", i)
		}
	}
}

// TestDecodeReuseNoStaleState decodes a large result then a small one
// into the same Result: nothing from the first decode may leak into the
// second.
func TestDecodeReuseNoStaleState(t *testing.T) {
	samples := sampleResults()
	big, small := samples[0], samples[3]
	var r traceroute.Result
	if _, err := DecodeResultInto(&r, AppendResult(nil, 1, big)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResultInto(&r, AppendResult(nil, 2, small)); err != nil {
		t.Fatal(err)
	}
	if !resultEqual(small, &r) {
		t.Fatalf("stale state after reuse: %+v", &r)
	}
}

// randAddr generates none / v4 / v6 / v4-mapped-in-6 with equal odds.
func randAddr(rng *rand.Rand) netip.Addr {
	switch rng.Intn(4) {
	case 0:
		return netip.Addr{}
	case 1:
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	case 2:
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	default:
		var b [16]byte
		b[10], b[11] = 0xff, 0xff
		rng.Read(b[12:])
		return netip.AddrFrom16(b)
	}
}

func randResult(rng *rand.Rand) *traceroute.Result {
	r := &traceroute.Result{
		ProbeID:   int(int32(rng.Uint32())),
		MsmID:     int(int32(rng.Uint32())),
		Timestamp: time.Unix(rng.Int63n(1<<40)-(1<<39), rng.Int63n(1e9)).UTC(),
		AF:        rng.Intn(7),
		SrcAddr:   randAddr(rng),
		FromAddr:  randAddr(rng),
		DstAddr:   randAddr(rng),
		Proto:     [...]string{"", "ICMP", "UDP", "TCP", "X"}[rng.Intn(5)],
	}
	for h := rng.Intn(5); h > 0; h-- {
		hop := traceroute.HopResult{Hop: rng.Intn(64) - 1}
		for n := rng.Intn(4); n > 0; n-- {
			rep := traceroute.Reply{TTL: rng.Intn(256)}
			if rng.Intn(3) == 0 {
				rep.Timeout = true
				rep.RTT = math.NaN()
			} else {
				rep.From = randAddr(rng)
				rep.RTT = rng.NormFloat64() * 10
			}
			hop.Replies = append(hop.Replies, rep)
		}
		r.Hops = append(r.Hops, hop)
	}
	return r
}

// TestQuickResultRoundTrip pins both halves of the bijection on random
// results: decode(encode(r)) == r and encode(decode(b)) == b.
func TestQuickResultRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			args[0] = reflect.ValueOf(randResult(rng))
			args[1] = reflect.ValueOf(bgp.ASN(rng.Uint32()))
		},
	}
	prop := func(r *traceroute.Result, asn bgp.ASN) bool {
		enc := AppendResult(nil, asn, r)
		var got traceroute.Result
		gotASN, err := DecodeResultInto(&got, enc)
		if err != nil || gotASN != asn || !resultEqual(r, &got) {
			return false
		}
		return bytes.Equal(enc, AppendResult(nil, gotASN, &got))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// buildArchive frames the samples with distinct ASNs.
func buildArchive(t *testing.T) ([]byte, []*traceroute.Result) {
	t.Helper()
	samples := sampleResults()
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamResults)
	for i, r := range samples {
		if err := w.WriteResult(bgp.ASN(64500+i), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), samples
}

func TestWriterScannerRoundTrip(t *testing.T) {
	archive, samples := buildArchive(t)
	if !IsMagic(archive) {
		t.Fatal("archive does not start with the wire magic")
	}

	scanAll := func(t *testing.T, sc *Scanner) {
		t.Helper()
		for i, want := range samples {
			if !sc.Scan() {
				t.Fatalf("Scan stopped at %d: %v", i, sc.Err())
			}
			if sc.ASN() != bgp.ASN(64500+i) {
				t.Fatalf("frame %d: asn %d", i, sc.ASN())
			}
			if !resultEqual(want, sc.Result()) {
				t.Fatalf("frame %d: %+v != %+v", i, sc.Result(), want)
			}
		}
		if sc.Scan() {
			t.Fatal("extra frame")
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("clean stream ended with error: %v", err)
		}
	}

	t.Run("plain", func(t *testing.T) {
		scanAll(t, NewScanner(bytes.NewReader(archive)))
	})
	t.Run("gzip", func(t *testing.T) {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(archive); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		scanAll(t, NewScanner(bytes.NewReader(gz.Bytes())))
	})
}

func TestLogWriterScannerRoundTrip(t *testing.T) {
	logs := sampleLogs()
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamCDNLog)
	for _, e := range logs {
		if err := w.WriteLog(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewLogScanner(bytes.NewReader(buf.Bytes()))
	for i, want := range logs {
		if !sc.Scan() {
			t.Fatalf("Scan stopped at %d: %v", i, sc.Err())
		}
		got := sc.Entry()
		if !logEqual(want, &got) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
	if sc.Scan() || sc.Err() != nil {
		t.Fatalf("trailing frame or error: %v", sc.Err())
	}
}

// TestEmptyStream: a flushed writer with no frames is a valid archive.
func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamResults)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HeaderLen {
		t.Fatalf("empty stream is %d bytes", buf.Len())
	}
	sc := NewScanner(bytes.NewReader(buf.Bytes()))
	if sc.Scan() {
		t.Fatal("scanned a frame from an empty stream")
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
}

// TestStreamTypeGates: writers refuse frames of the other schema, and
// scanners refuse streams of the other type.
func TestStreamTypeGates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, StreamResults)
	if err := w.WriteLog(sampleLogs()[0]); !errors.Is(err, ErrStreamType) {
		t.Fatalf("WriteLog on a results writer: %v", err)
	}
	lw := NewWriter(&buf, StreamCDNLog)
	if err := lw.WriteResult(1, sampleResults()[0]); !errors.Is(err, ErrStreamType) {
		t.Fatalf("WriteResult on a log writer: %v", err)
	}

	archive, _ := buildArchive(t)
	ls := NewLogScanner(bytes.NewReader(archive))
	if ls.Scan() {
		t.Fatal("log scanner accepted a results stream")
	}
	if !errors.Is(ls.Err(), ErrStreamType) {
		t.Fatalf("want ErrStreamType, got %v", ls.Err())
	}
}

// TestStreamCorruptionTable pins the typed error for each class of
// stream-level damage.
func TestStreamCorruptionTable(t *testing.T) {
	archive, _ := buildArchive(t)
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), archive...)
		return f(b)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty input", nil, ErrBadMagic},
		{"not wire at all", []byte(`{"fw":5020}`), ErrBadMagic},
		{"magic bit flipped", mutate(func(b []byte) []byte { b[0] ^= 0x01; return b }), ErrBadMagic},
		{"unknown version", mutate(func(b []byte) []byte { b[4] = 99; return b }), ErrVersion},
		{"wrong stream type", mutate(func(b []byte) []byte { b[5] = StreamCDNLog; return b }), ErrStreamType},
		{"header truncated", archive[:5], ErrShortFrame},
		{"length prefix truncated", archive[:HeaderLen+1], ErrShortFrame},
		{"payload truncated", archive[:len(archive)-2], ErrShortFrame},
		{"overlong length prefix", mutate(func(b []byte) []byte {
			// Rewrite the first frame's 1-byte length prefix as an
			// overlong 2-byte encoding of the same value.
			n := b[HeaderLen]
			out := append(b[:HeaderLen:HeaderLen], n|0x80, 0x00)
			return append(out, b[HeaderLen+1:]...)
		}), ErrOverlongVarint},
		{"frame beyond size limit", mutate(func(b []byte) []byte {
			return appendUvarint(b[:HeaderLen:HeaderLen], MaxFrame+1)
		}), ErrFrameTooLarge},
		{"frame payload with trailing bytes", mutate(func(b []byte) []byte {
			// Grow the first frame's length by one so the decoder sees a
			// stray byte after a clean payload.
			rest := append([]byte{0x00}, b[HeaderLen+1+int(b[HeaderLen]):]...)
			out := append(b[:HeaderLen:HeaderLen], b[HeaderLen]+1)
			out = append(out, b[HeaderLen+1:HeaderLen+1+int(b[HeaderLen])]...)
			return append(out, rest...)
		}), ErrTrailingBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScanner(bytes.NewReader(tc.in))
			for sc.Scan() {
			}
			if !errors.Is(sc.Err(), tc.want) {
				t.Fatalf("want %v, got %v", tc.want, sc.Err())
			}
		})
	}
}

// TestPayloadCorruptionExhaustive decodes every prefix of every valid
// payload and a single-byte mutation at every position: all must fail or
// succeed with a typed result, never panic, and every truncation must
// fail (no payload has a valid proper prefix that consumes all bytes).
func TestPayloadCorruptionExhaustive(t *testing.T) {
	var r traceroute.Result
	for si, sample := range sampleResults() {
		payload := AppendResult(nil, 64500, sample)
		for i := 0; i < len(payload); i++ {
			if _, err := DecodeResultInto(&r, payload[:i]); err == nil {
				t.Fatalf("sample %d: truncation to %d bytes decoded cleanly", si, i)
			}
		}
		for i := 0; i < len(payload); i++ {
			for _, delta := range []byte{0x01, 0x80, 0xff} {
				b := append([]byte(nil), payload...)
				b[i] ^= delta
				// Must not panic; a surviving decode must re-encode
				// canonically.
				if asn, err := DecodeResultInto(&r, b); err == nil {
					if enc := AppendResult(nil, asn, &r); !bytes.Equal(enc, b) {
						t.Fatalf("sample %d: mutated payload decoded non-canonically (byte %d ^ %#x)", si, i, delta)
					}
				}
			}
		}
	}
	var e cdn.LogEntry
	for si, sample := range sampleLogs() {
		payload := AppendLog(nil, sample)
		for i := 0; i < len(payload); i++ {
			if err := DecodeLogInto(&e, payload[:i]); err == nil {
				t.Fatalf("log sample %d: truncation to %d bytes decoded cleanly", si, i)
			}
		}
	}
}

// TestDecodeResultErrorTable pins typed errors for structurally invalid
// frame bodies.
func TestDecodeResultErrorTable(t *testing.T) {
	valid := AppendResult(nil, 64500, sampleResults()[0])
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty payload", nil, ErrShortFrame},
		{"asn beyond uint32", appendUvarint(nil, 1<<33), ErrBadFrame},
		{"overlong asn varint", []byte{0x80, 0x00}, ErrOverlongVarint},
		{"nanoseconds out of range", func() []byte {
			b := appendUvarint(nil, 64500)       // asn
			b = appendZigzag(b, 0)               // probeID
			b = appendZigzag(b, 0)               // msmID
			b = appendZigzag(b, 0)               // sec
			return appendUvarint(b, uint64(1e9)) // nsec: out of range
		}(), ErrBadFrame},
		{"unix seconds out of range", func() []byte {
			b := appendUvarint(nil, 64500)
			b = appendZigzag(b, 0)
			b = appendZigzag(b, 0)
			b = appendZigzag(b, maxUnixSec+1)
			return appendUvarint(b, 0)
		}(), ErrBadFrame},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x00), ErrTrailingBytes},
	}
	var r traceroute.Result
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResultInto(&r, tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
		})
	}
}

// TestVarintCanonicality: every canonical encoding decodes to itself and
// overlong forms are rejected.
func TestVarintCanonicality(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 14, 1<<64 - 1} {
		enc := appendUvarint(nil, v)
		got, n, err := uvarint(enc)
		if err != nil || got != v || n != len(enc) {
			t.Fatalf("uvarint(%d): got %d (%d bytes), err %v", v, got, n, err)
		}
	}
	for _, b := range [][]byte{
		{0x80, 0x00}, // overlong zero
		{0xff, 0x00}, // zero continuation
		{0x80},       // truncated
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // 65-bit
	} {
		if _, _, err := uvarint(b); err == nil {
			t.Fatalf("uvarint(%x) decoded cleanly", b)
		}
	}
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-trips to %d", v, got)
		}
	}
}

// TestHugeDeclaredLengthFailsCheaply pins the allocation cap on
// untrusted length prefixes: a corrupt stream declaring a MaxFrame-sized
// frame backed by three real bytes must fail with ErrShortFrame after
// allocating no more than one growth step — not after committing 16MiB
// to a length the stream cannot back.
func TestHugeDeclaredLengthFailsCheaply(t *testing.T) {
	var sb bytes.Buffer
	w := NewWriter(&sb, StreamResults)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	raw := appendUvarint(sb.Bytes(), MaxFrame) // declared: the maximum
	raw = append(raw, 0x01, 0x02, 0x03)        // real payload: 3 bytes

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc := NewScanner(bytes.NewReader(raw))
	if sc.Scan() {
		t.Fatal("Scan succeeded on a truncated huge frame")
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(sc.Err(), ErrShortFrame) {
		t.Fatalf("Err = %v, want ErrShortFrame", sc.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("failing on a %d-byte declared length allocated %d bytes; the stepwise cap should keep it under 1MiB", MaxFrame, grew)
	}
}

// TestReadPayloadGrowth pins the growth schedule: large genuine frames
// still round-trip through the stepwise buffer (exercising the
// copy-on-grow path across several doublings), and a second scan of the
// same stream reuses the grown buffer.
func TestReadPayloadGrowth(t *testing.T) {
	big := &traceroute.Result{
		ProbeID:   7,
		MsmID:     5010,
		Timestamp: time.Unix(1568889000, 0).UTC(),
		AF:        4,
		SrcAddr:   netip.MustParseAddr("192.0.2.1"),
		FromAddr:  netip.MustParseAddr("203.0.113.99"),
		DstAddr:   netip.MustParseAddr("198.51.100.9"),
		Proto:     "UDP",
	}
	from := netip.MustParseAddr("203.0.113.7")
	for h := 0; h < 2048; h++ {
		hop := traceroute.HopResult{Hop: h + 1}
		for r := 0; r < 16; r++ {
			hop.Replies = append(hop.Replies, traceroute.Reply{From: from, RTT: float64(r) + 0.25, TTL: 64})
		}
		big.Hops = append(big.Hops, hop)
	}

	var sb bytes.Buffer
	w := NewWriter(&sb, StreamResults)
	for i := 0; i < 2; i++ {
		if err := w.WriteResult(64496, big); err != nil {
			t.Fatalf("WriteResult %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	sc := NewScanner(bytes.NewReader(sb.Bytes()))
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("Scan %d failed: %v", i, sc.Err())
		}
		if got := sc.Result(); !reflect.DeepEqual(got, big) {
			t.Fatalf("Scan %d: result corrupted across buffer growth (%d hops vs %d)", i, len(got.Hops), len(big.Hops))
		}
	}
	if sc.Scan() || sc.Err() != nil {
		t.Fatalf("stream should end cleanly, err %v", sc.Err())
	}
}

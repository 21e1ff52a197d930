package traceroute_test

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/traceroute/tracetest"
)

// sameEncoding fails t unless MarshalAtlas and the encoding/json oracle
// produce identical bytes, or fail with identical errors. It reports
// whether r encoded.
func sameEncoding(t *testing.T, r *traceroute.Result) bool {
	t.Helper()
	got, gotErr := traceroute.MarshalAtlas(r)
	want, wantErr := tracetest.MarshalAtlas(r)
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("errors differ: hand %v, oracle %v\nresult: %+v", gotErr, wantErr, r)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoders disagree:\n  hand: %s\noracle: %s\nresult: %+v", got, want, r)
	}
	return wantErr == nil
}

// TestMarshalAtlasEdgeCases pins one result per input class the encoder
// distinguishes, so each is covered whatever the random property draws.
func TestMarshalAtlasEdgeCases(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.1")
	answer := func(rtt float64, ttl int) []traceroute.HopResult {
		return []traceroute.HopResult{{Hop: 1, Replies: []traceroute.Reply{{From: a, RTT: rtt, TTL: ttl}}}}
	}
	cases := []struct {
		name  string
		r     traceroute.Result
		fails bool
	}{
		{name: "zero result", r: traceroute.Result{}},
		{name: "empty hops", r: traceroute.Result{Hops: []traceroute.HopResult{}}},
		{name: "hop without replies", r: traceroute.Result{Hops: []traceroute.HopResult{{Hop: 3}, {Hop: 4, Replies: []traceroute.Reply{}}}}},
		{name: "ttl 0", r: traceroute.Result{Hops: answer(1.5, 0)}},
		{name: "negative ttl", r: traceroute.Result{Hops: answer(1.5, -3)}},
		{name: "negative zero rtt", r: traceroute.Result{Hops: answer(math.Copysign(0, -1), 64)}},
		{name: "exponent below 1e-6", r: traceroute.Result{Hops: answer(1e-7, 64)}},
		{name: "smallest subnormal", r: traceroute.Result{Hops: answer(5e-324, 64)}},
		{name: "exponent from 1e21", r: traceroute.Result{Hops: answer(-1e21, 64)}},
		{name: "just below 1e21", r: traceroute.Result{Hops: answer(999999999999999900000, 64)}},
		{name: "NaN rtt", r: traceroute.Result{Hops: answer(math.NaN(), 64)}, fails: true},
		{name: "+Inf rtt", r: traceroute.Result{Hops: answer(math.Inf(1), 64)}, fails: true},
		{name: "-Inf rtt", r: traceroute.Result{Hops: answer(math.Inf(-1), 64)}, fails: true},
		{name: "NaN on a timeout", r: traceroute.Result{Hops: []traceroute.HopResult{{Hop: 1, Replies: []traceroute.Reply{
			{Timeout: true, From: a, RTT: math.NaN()}, {From: netip.Addr{}, RTT: math.Inf(1)},
		}}}}},
		{name: "mapped and zoned addresses", r: traceroute.Result{
			SrcAddr:  netip.MustParseAddr("::ffff:192.0.2.1"),
			FromAddr: netip.MustParseAddr("fe80::1%eth0"),
			DstAddr:  netip.MustParseAddr("fe80::2").WithZone("<a&b>\"\\\x01\u2028"),
			Hops: []traceroute.HopResult{{Hop: 1, Replies: []traceroute.Reply{
				{From: netip.MustParseAddr("fe80::3").WithZone("\xff\xfe"), RTT: 2},
			}}},
		}},
		{name: "escaped proto", r: traceroute.Result{Proto: "<UDP>&\"\\\b\f\n\r\t\x00\x1f\x7f\u2029é\xc3"}},
		{name: "extreme ints", r: traceroute.Result{
			ProbeID: math.MaxInt, MsmID: math.MinInt, AF: -6,
			Timestamp: time.Unix(-1, 999999999).In(time.FixedZone("X", 3600)),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if ok := sameEncoding(t, &c.r); ok == c.fails {
				t.Fatalf("encoded = %v, want %v", ok, !c.fails)
			}
		})
	}
}

// TestMarshalAtlasMatchesOracle is the seeded-random property: over
// results drawn from every input class, MarshalAtlas reproduces
// encoding/json byte for byte or fails with the same error, and one
// reused Writer streams exactly the oracle's lines for the results that
// encode.
func TestMarshalAtlasMatchesOracle(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(13))
	var stream, want bytes.Buffer
	w := traceroute.NewWriter(&stream)
	encoded := 0
	for i := 0; i < n; i++ {
		r := randomResult(rng)
		ok := sameEncoding(t, r)
		err := w.Write(r)
		if ok != (err == nil) {
			t.Fatalf("record %d: Writer.Write error %v, MarshalAtlas encoded = %v", i, err, ok)
		}
		if ok {
			encoded++
			line, _ := tracetest.MarshalAtlas(r)
			want.Write(line)
			want.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if encoded == 0 || encoded == n {
		t.Fatalf("%d of %d results encoded: the draw must exercise both success and failure", encoded, n)
	}
	if !bytes.Equal(stream.Bytes(), want.Bytes()) {
		t.Fatal("the Writer's stream differs from the oracle's lines")
	}
}

// TestWriterFailingRecordLeavesStreamIntact: a record that fails to
// encode returns its error from Write and leaves no trace in the stream,
// so the records around it stay two valid JSONL lines.
func TestWriterFailingRecordLeavesStreamIntact(t *testing.T) {
	first, bad, last := traceroute.SampleResult(), traceroute.SampleResult(), traceroute.SampleResult()
	bad.Hops[2].Replies[0].RTT = math.NaN() // after two hops' worth of output
	last.ProbeID++

	var buf bytes.Buffer
	w := traceroute.NewWriter(&buf)
	if err := w.Write(first); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(bad); err == nil {
		t.Fatal("Write of a NaN RTT on an answered reply succeeded")
	}
	if err := w.Write(last); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, r := range []*traceroute.Result{first, last} {
		line, err := tracetest.MarshalAtlas(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	sc := traceroute.NewScanner(&buf)
	var probes []int
	for sc.Scan() {
		probes = append(probes, sc.Result().ProbeID)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(probes) != 2 || probes[0] != first.ProbeID || probes[1] != last.ProbeID {
		t.Fatalf("scanned probes %v, want [%d %d]", probes, first.ProbeID, last.ProbeID)
	}
}

// randomResult draws a result covering every input class the encoder
// distinguishes: nil, empty and populated hops and replies; timeouts,
// address-less replies and answers; TTL 0; RTTs that need exponent form,
// -0 and the non-finite values that must fail; invalid, IPv4, IPv6,
// IPv4-mapped and zoned addresses; and strings with HTML, control,
// line-separator and invalid UTF-8 bytes.
func randomResult(rng *rand.Rand) *traceroute.Result {
	r := &traceroute.Result{
		ProbeID:   randomInt(rng),
		MsmID:     randomInt(rng),
		Timestamp: time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9)),
		AF:        []int{4, 6, 0, -1}[rng.Intn(4)],
		SrcAddr:   randomAddr(rng),
		FromAddr:  randomAddr(rng),
		DstAddr:   randomAddr(rng),
		Proto:     randomString(rng),
	}
	switch rng.Intn(8) {
	case 0: // nil hops
	case 1:
		r.Hops = []traceroute.HopResult{}
	default:
		for n := rng.Intn(7); n > 0; n-- {
			h := traceroute.HopResult{Hop: randomInt(rng)}
			switch rng.Intn(6) {
			case 0: // nil replies
			case 1:
				h.Replies = []traceroute.Reply{}
			default:
				for k := 1 + rng.Intn(3); k > 0; k-- {
					h.Replies = append(h.Replies, randomReply(rng))
				}
			}
			r.Hops = append(r.Hops, h)
		}
	}
	return r
}

func randomReply(rng *rand.Rand) traceroute.Reply {
	rep := traceroute.Reply{From: randomAddr(rng), RTT: randomRTT(rng)}
	if rng.Intn(5) == 0 {
		rep.Timeout = true
	}
	if rng.Intn(3) > 0 {
		rep.TTL = randomInt(rng)
	}
	return rep
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return []int{-1, math.MaxInt, math.MinInt}[rng.Intn(3)]
	case 2:
		return -rng.Intn(1000)
	}
	return rng.Intn(1 << 20)
}

func randomRTT(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		specials := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			1e-6, 9.999999e-7, 1e-7, 5e-324, 1e21, 9.99e20, math.MaxFloat64, -1e-8,
		}
		return specials[rng.Intn(len(specials))]
	case 1:
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100)
	case 2:
		// Arbitrary bit patterns, including the odd NaN or infinity.
		return math.Float64frombits(rng.Uint64())
	}
	return math.Round(rng.Float64()*1e5) / 1e3
}

func randomAddr(rng *rand.Rand) netip.Addr {
	var b16 [16]byte
	rng.Read(b16[:])
	switch rng.Intn(6) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom16(b16)
	case 2:
		b16 = [16]byte{10: 0xff, 11: 0xff, 12: b16[12], 13: b16[13], 14: b16[14], 15: b16[15]}
		return netip.AddrFrom16(b16) // IPv4-mapped IPv6
	case 3:
		if zone := randomString(rng); zone != "" {
			return netip.AddrFrom16(b16).WithZone(zone)
		}
	}
	return netip.AddrFrom4([4]byte{b16[0], b16[1], b16[2], b16[3]})
}

// randomString returns a protocol token, empty, or a mix of pieces that
// exercise every escaping rule of encoding/json.
func randomString(rng *rand.Rand) string {
	pieces := []string{
		"eth0", "ICMP", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\b", "\f",
		"\n", "\r", "\t", "\x7f", "\u2028", "\u2029", "é", "𝄞", "\xff", "\xc3", "\xed\xa0\x80",
	}
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return []string{"ICMP", "UDP", "TCP"}[rng.Intn(3)]
	}
	var b []byte
	for n := 1 + rng.Intn(4); n > 0; n-- {
		b = append(b, pieces[rng.Intn(len(pieces))]...)
	}
	return string(b)
}

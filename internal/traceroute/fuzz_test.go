package traceroute_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/traceroute/tracetest"
)

// FuzzParseAtlasJSON is the coverage-guided companion to
// TestParseAtlasNeverPanics: ParseAtlas must never panic, and any input
// it accepts must survive a Marshal/Parse round trip with its sample
// structure intact — hop count, per-hop reply counts, the answered
// (non-timeout) subset, identity fields, and RTT bits.
//
// It is also the differential oracle for the hand-rolled zero-alloc
// parser: ParseAtlasInto may reject inputs encoding/json accepts (its
// documented tightenings — duplicate mapped keys, zoned addresses, the
// nesting cap), but it must never accept an input the oracle rejects,
// and when both accept they must produce bit-identical Results.
//
// The encoder gets the same treatment: MarshalAtlas must reproduce
// tracetest.MarshalAtlas, the encoding/json reference encoder, byte for
// byte on every accepted input.
//
// Seed corpus: the f.Add seeds below plus testdata/fuzz/FuzzParseAtlasJSON.
// scripts/check.sh runs a short -fuzz smoke pass over it.
func FuzzParseAtlasJSON(f *testing.F) {
	valid, err := traceroute.MarshalAtlas(traceroute.SampleResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"result": [{"hop": 1, "result": [{"x": "*"}]}]}`))
	f.Add([]byte(`{"fw": 5020, "af": 6, "prb_id": 7, "msm_id": 5010, "timestamp": 1568894400,` +
		` "src_addr": "2001:db8::5", "result": [{"hop": 1, "result":` +
		` [{"from": "2001:db8::1", "rtt": 0.7, "ttl": 64}, {"err": "N"}]}]}`))
	f.Add([]byte(`{"result": [{"hop": 1, "result": [{"rtt": "fast"}]}]}`))
	// The zero-alloc parser's documented tightenings: the oracle accepts
	// these, ParseAtlasInto rejects them.
	f.Add([]byte(`{"timestamp": 1, "timestamp": 2}`))
	f.Add([]byte(`{"src_addr": "fe80::1%eth0"}`))
	// Key folding and escape handling must match encoding/json exactly.
	f.Add([]byte(`{"PRB_ID": 3, "timestamp": 9}`))
	f.Add([]byte(`{"proto": "𝄞\uD800x", "prb_id": 1}`))
	// Int fields whose first 19 digits overflow uint64 once multiplied:
	// both parsers must reject them.
	f.Add([]byte(`{"prb_id":20000000000000000000}`))
	f.Add([]byte(`{"prb_id":-20000000000000000000}`))
	f.Add([]byte(`{"timestamp":18446744073709551617}`))
	// Inputs that must leave the predicted keys or the reused reply
	// address for the general path.
	f.Add([]byte(`{"result":[{"hop":1,"result":[{"\u0066rom":"10.0.0.1","rtt":1,"ttl":3}]}]}`))
	f.Add([]byte(`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt" : 1,"ttl":3}]}]}`))
	f.Add([]byte(`{"result":[{"hop":1,"result":[{"FROM":"10.0.0.1","Rtt":1,"TTL":3,"Kx":"*","rttK":2}]}]}`))
	f.Add([]byte(`{"result":[{"hop":1,"reſult":[{"from":"10.0.0.1","rtt":1,"ttl":3}]}]}`))
	f.Add([]byte(`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1,"rtt":2}]}]}`))
	f.Add([]byte(`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":0.39252994275924824},` +
		`{"from":"10.0.0.1","rtt":0.32526529539117355},{"from":"10.0.0.2","rtt":0.5385039174889947}]}]}`))
	f.Add([]byte(`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1},{"from":"10.0.0.1x","rtt":2}]}]}`))
	f.Add([]byte(`{"fw":5020,"prb_id":1,"result":[{"hop":1,"result":[{"from":"10.0.0.1","rt`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var into traceroute.Result
		intoErr := traceroute.ParseAtlasInto(&into, data) // must not panic
		r, err := traceroute.ParseAtlas(data)             // must not panic
		if intoErr == nil && err != nil {
			t.Fatalf("ParseAtlasInto accepted input the oracle rejects (%v)\ninput: %q", err, data)
		}
		if err != nil {
			return
		}
		if intoErr == nil && !resultsIdentical(r, &into) {
			t.Fatalf("parsers disagree on accepted input:\noracle: %+v\n  into: %+v\ninput: %q",
				r, &into, data)
		}
		// Accepted input: re-encode and re-parse; the sampled structure
		// must round-trip exactly.
		enc, err := traceroute.MarshalAtlas(r)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v\ninput: %q", err, data)
		}
		want, err := tracetest.MarshalAtlas(r)
		if err != nil {
			t.Fatalf("oracle failed to encode an accepted input: %v\ninput: %q", err, data)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("encoders disagree:\n  hand: %s\noracle: %s\ninput: %q", enc, want, data)
		}
		r2, err := traceroute.ParseAtlas(enc)
		if err != nil {
			t.Fatalf("re-encoded output failed to parse: %v\nencoded: %q", err, enc)
		}
		if r2.ProbeID != r.ProbeID || r2.MsmID != r.MsmID || r2.AF != r.AF ||
			!r2.Timestamp.Equal(r.Timestamp) {
			t.Fatalf("identity fields changed: %+v vs %+v", r2, r)
		}
		// The re-encoding is canonical JSON; the zero-alloc parser must
		// agree with the oracle on it too.
		var into2 traceroute.Result
		if err := traceroute.ParseAtlasInto(&into2, enc); err != nil {
			// Zoned addresses survive the oracle's round trip but are a
			// documented ParseAtlasInto tightening; everything else must
			// be accepted.
			if !hasZonedAddr(r) {
				t.Fatalf("ParseAtlasInto rejected canonical re-encoding: %v\nencoded: %q", err, enc)
			}
		} else if !resultsIdentical(r2, &into2) {
			t.Fatalf("parsers disagree on canonical re-encoding:\noracle: %+v\n  into: %+v", r2, &into2)
		}
		if len(r2.Hops) != len(r.Hops) {
			t.Fatalf("hop count %d -> %d", len(r.Hops), len(r2.Hops))
		}
		for i, h := range r.Hops {
			h2 := r2.Hops[i]
			if h2.Hop != h.Hop || len(h2.Replies) != len(h.Replies) {
				t.Fatalf("hop[%d] {%d,%d replies} -> {%d,%d replies}",
					i, h.Hop, len(h.Replies), h2.Hop, len(h2.Replies))
			}
			for j, rep := range h.Replies {
				rep2 := h2.Replies[j]
				if rep2.Timeout != rep.Timeout {
					t.Fatalf("hop[%d] reply[%d] timeout %v -> %v", i, j, rep.Timeout, rep2.Timeout)
				}
				if rep.Timeout {
					continue
				}
				if rep2.From != rep.From || rep2.TTL != rep.TTL ||
					math.Float64bits(rep2.RTT) != math.Float64bits(rep.RTT) {
					t.Fatalf("hop[%d] reply[%d] %+v -> %+v", i, j, rep, rep2)
				}
			}
		}
	})
}

// resultsIdentical is bit-exact equality: every field, RTTs by bit
// pattern, nil and empty slices equal.
func resultsIdentical(a, b *traceroute.Result) bool {
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

// hasZonedAddr reports whether any address in r carries an IPv6 zone —
// representable by the oracle but rejected by the zero-alloc parser.
func hasZonedAddr(r *traceroute.Result) bool {
	if r.SrcAddr.Zone() != "" || r.FromAddr.Zone() != "" || r.DstAddr.Zone() != "" {
		return true
	}
	for i := range r.Hops {
		for j := range r.Hops[i].Replies {
			if r.Hops[i].Replies[j].From.Zone() != "" {
				return true
			}
		}
	}
	return false
}

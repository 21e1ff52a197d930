package lastmile

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

var t0 = time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)

// makeTrace builds a traceroute with one private hop at privRTTs and one
// public hop at pubRTTs.
func makeTrace(probeID int, ts time.Time, privRTTs, pubRTTs []float64) *traceroute.Result {
	priv := netip.MustParseAddr("192.168.1.1")
	pub := netip.MustParseAddr("203.0.113.1")
	r := &traceroute.Result{
		ProbeID:   probeID,
		MsmID:     5010,
		Timestamp: ts,
		AF:        4,
		SrcAddr:   netip.MustParseAddr("192.168.1.5"),
		FromAddr:  netip.MustParseAddr("203.0.113.7"),
		DstAddr:   netip.MustParseAddr("193.0.14.129"),
		Proto:     "ICMP",
	}
	h1 := traceroute.HopResult{Hop: 1}
	for _, rtt := range privRTTs {
		h1.Replies = append(h1.Replies, traceroute.Reply{From: priv, RTT: rtt, TTL: 64})
	}
	h2 := traceroute.HopResult{Hop: 2}
	for _, rtt := range pubRTTs {
		h2.Replies = append(h2.Replies, traceroute.Reply{From: pub, RTT: rtt, TTL: 254})
	}
	r.Hops = []traceroute.HopResult{h1, h2}
	return r
}

func TestFindSegment(t *testing.T) {
	r := makeTrace(1, t0, []float64{0.5}, []float64{2.5})
	seg, ok := FindSegment(r)
	if !ok {
		t.Fatal("segment not found")
	}
	if seg.PrivateHop != 0 || seg.PublicHop != 1 {
		t.Fatalf("segment = %+v", seg)
	}
	if seg.PrivateAddr.String() != "192.168.1.1" || seg.PublicAddr.String() != "203.0.113.1" {
		t.Fatalf("segment addrs = %+v", seg)
	}
}

func TestFindSegmentSkipsCGNAT(t *testing.T) {
	// CGNAT hop between home NAT and ISP edge: the private side should be
	// the CGNAT hop (100.64/10 is subscriber-side), the public side the
	// first real public hop.
	r := makeTrace(1, t0, []float64{0.5}, []float64{9.9})
	cgnat := traceroute.HopResult{Hop: 2, Replies: []traceroute.Reply{
		{From: netip.MustParseAddr("100.64.0.1"), RTT: 1.5, TTL: 63},
	}}
	r.Hops[1].Hop = 3
	r.Hops = []traceroute.HopResult{r.Hops[0], cgnat, r.Hops[1]}
	seg, ok := FindSegment(r)
	if !ok {
		t.Fatal("segment not found")
	}
	if seg.PrivateHop != 1 || seg.PublicHop != 2 {
		t.Fatalf("segment = %+v, want CGNAT->public", seg)
	}
}

func TestFindSegmentNoPublic(t *testing.T) {
	r := makeTrace(1, t0, []float64{0.5}, []float64{2.5})
	r.Hops = r.Hops[:1]
	if _, ok := FindSegment(r); ok {
		t.Fatal("no public hop: segment must not be found")
	}
}

func TestFindSegmentFirstHopPublic(t *testing.T) {
	// Datacenter-style host: first hop is already public.
	r := &traceroute.Result{
		ProbeID: 1, Timestamp: t0, AF: 4,
		Hops: []traceroute.HopResult{
			{Hop: 1, Replies: []traceroute.Reply{
				{From: netip.MustParseAddr("203.0.113.1"), RTT: 0.4},
			}},
		},
	}
	if _, ok := FindSegment(r); ok {
		t.Fatal("public first hop: no last mile to measure")
	}
}

func TestFindSegmentTimeoutPrivateHop(t *testing.T) {
	// The private hop times out entirely: no segment.
	r := makeTrace(1, t0, nil, []float64{2.0})
	r.Hops[0].Replies = []traceroute.Reply{{Timeout: true, RTT: math.NaN()}}
	if _, ok := FindSegment(r); ok {
		t.Fatal("timed-out private hop must not form a segment")
	}
}

func TestPairwiseSamplesNineSamples(t *testing.T) {
	r := makeTrace(1, t0, []float64{0.5, 0.6, 0.4}, []float64{2.5, 2.6, 2.4})
	seg, ok := FindSegment(r)
	if !ok {
		t.Fatal("no segment")
	}
	samples := PairwiseSamplesInto(nil, r, seg)
	if len(samples) != 9 {
		t.Fatalf("samples = %d, want 9", len(samples))
	}
	// All diffs near 2.0.
	for _, s := range samples {
		if s < 1.7 || s > 2.3 {
			t.Fatalf("sample %v out of expected range", s)
		}
	}
}

func TestPairwiseSamplesPartialReplies(t *testing.T) {
	r := makeTrace(1, t0, []float64{0.5, 0.6}, []float64{2.5})
	seg, _ := FindSegment(r)
	samples := PairwiseSamplesInto(nil, r, seg)
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
}

func TestPairwiseSamplesIgnoreOtherResponders(t *testing.T) {
	// A load-balanced public hop with two responders: only RTTs from the
	// segment's chosen address count.
	r := makeTrace(1, t0, []float64{0.5}, []float64{2.5})
	r.Hops[1].Replies = append(r.Hops[1].Replies, traceroute.Reply{
		From: netip.MustParseAddr("198.51.100.9"), RTT: 50, TTL: 200,
	})
	seg, _ := FindSegment(r)
	samples := PairwiseSamplesInto(nil, r, seg)
	if len(samples) != 1 {
		t.Fatalf("samples = %v, want 1 from chosen responder", samples)
	}
	if samples[0] != 2.0 {
		t.Fatalf("sample = %v", samples[0])
	}
}

func TestEstimate(t *testing.T) {
	r := makeTrace(1, t0, []float64{0.5, 0.5, 0.5}, []float64{2.5, 2.5, 2.5})
	samples, seg, ok := Estimate(r)
	if !ok || len(samples) != 9 || seg.PublicHop != 1 {
		t.Fatalf("estimate = %v, %+v, %v", samples, seg, ok)
	}
	r2 := makeTrace(1, t0, []float64{0.5}, nil)
	r2.Hops[1].Replies = []traceroute.Reply{{Timeout: true, RTT: math.NaN()}}
	if _, _, ok := Estimate(r2); ok {
		t.Fatal("estimate should fail without public replies")
	}
}

// Package lastmile implements the paper's last-mile RTT estimation (§2.1):
// locating the segment between the last private hop and the first public
// hop of a traceroute and producing the 9 pairwise RTT samples per
// traceroute. Binning them into per-probe 30-minute medians and
// aggregating probe populations into the queuing-delay signals the
// classifier consumes is internal/engine's job; the binning defaults
// live here.
package lastmile

import (
	"math"
	"net/netip"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/ipnet"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// DefaultBinWidth is the paper's 30-minute aggregation window,
// deliberately large to filter transient congestion (§2).
const DefaultBinWidth = 30 * time.Minute

// DefaultMinTraceroutes is the paper's per-bin sanity threshold: bins with
// fewer than 3 traceroutes are discarded as probe-disconnection artefacts.
const DefaultMinTraceroutes = 3

// Segment identifies the last-mile boundary within one traceroute: the
// last hop answering with a private address before the first hop answering
// with a public one.
type Segment struct {
	// PrivateHop and PublicHop are indices into Result.Hops.
	PrivateHop, PublicHop int
	// PrivateAddr and PublicAddr are the reply addresses at those hops.
	PrivateAddr, PublicAddr netip.Addr
}

// FindSegment locates the last-mile segment of r. It returns false when
// the traceroute has no public hop, no private hop before the first public
// hop (e.g. a datacenter host with a public address on its LAN), or no
// usable RTTs on either side.
func FindSegment(r *traceroute.Result) (Segment, bool) {
	pub := -1
	var pubAddr netip.Addr
	for i, h := range r.Hops {
		for _, rep := range h.Replies {
			if !rep.Timeout && ipnet.IsPublic(rep.From) {
				pub = i
				pubAddr = rep.From
				break
			}
		}
		if pub >= 0 {
			break
		}
	}
	if pub <= 0 {
		// Either no public hop at all, or the very first hop is public
		// and there is no private segment to measure.
		return Segment{}, false
	}
	for i := pub - 1; i >= 0; i-- {
		for _, rep := range r.Hops[i].Replies {
			if !rep.Timeout && ipnet.IsPrivate(rep.From) {
				return Segment{
					PrivateHop:  i,
					PublicHop:   pub,
					PrivateAddr: rep.From,
					PublicAddr:  pubAddr,
				}, true
			}
		}
	}
	return Segment{}, false
}

// PairwiseSamplesInto appends to dst the pairwise RTT differences
// (public − private) between every usable reply pair of the segment's
// two hops — up to 9 samples per traceroute when both hops answered all
// three probes (§2.1). Negative differences (reply reordering, noise)
// are kept; the per-bin median downstream is the paper's noise filter.
// Pass a reused scratch as dst[:0]: replies are filtered in place rather
// than materialising the per-hop RTT slices, since the streaming
// monitor's per-observation path runs through here and must not
// allocate. When the segment has no usable reply pair on either side,
// dst is returned unchanged.
//
//lmvet:hotpath
func PairwiseSamplesInto(dst []float64, r *traceroute.Result, seg Segment) []float64 {
	if seg.PrivateHop < 0 || seg.PrivateHop >= len(r.Hops) ||
		seg.PublicHop < 0 || seg.PublicHop >= len(r.Hops) {
		return dst
	}
	pub := r.Hops[seg.PublicHop].Replies
	priv := r.Hops[seg.PrivateHop].Replies
	for _, p := range pub {
		if !usableRTT(p, seg.PublicAddr) {
			continue
		}
		for _, q := range priv {
			if !usableRTT(q, seg.PrivateAddr) {
				continue
			}
			dst = append(dst, p.RTT-q.RTT) //lmvet:ignore allocguard caller supplies pooled capacity; grows only until the scratch reaches the steady-state 9 samples
		}
	}
	return dst
}

// usableRTT reports whether one reply carries a finite positive RTT from
// the expected responder, so that a hop with mixed responders
// (load-balanced paths) does not blend RTTs of different routers into
// one estimate.
func usableRTT(rep traceroute.Reply, addr netip.Addr) bool {
	if rep.Timeout || rep.From != addr {
		return false
	}
	return !math.IsNaN(rep.RTT) && !math.IsInf(rep.RTT, 0) && rep.RTT > 0
}

// PairwiseFromRTTs returns the pairwise differences (public − private)
// between two sets of raw RTT observations — the same arithmetic as
// PairwiseSamplesInto, exposed for simulation fast paths that draw hop RTTs
// without materialising a full traceroute result.
func PairwiseFromRTTs(privRTTs, pubRTTs []float64) []float64 {
	return PairwiseFromRTTsInto(nil, privRTTs, pubRTTs)
}

// PairwiseFromRTTsInto is PairwiseFromRTTs appending into dst, so hot
// loops can reuse one scratch slice (pass dst[:0]) across traceroutes
// instead of allocating the 9-sample product per call.
func PairwiseFromRTTsInto(dst, privRTTs, pubRTTs []float64) []float64 {
	if len(privRTTs) == 0 || len(pubRTTs) == 0 {
		return nil
	}
	if dst == nil {
		dst = make([]float64, 0, len(privRTTs)*len(pubRTTs))
	}
	for _, p := range pubRTTs {
		for _, q := range privRTTs {
			dst = append(dst, p-q)
		}
	}
	return dst
}

// Estimate extracts the last-mile samples of r in one call. ok is false
// when the traceroute carries no usable last-mile information.
func Estimate(r *traceroute.Result) (samples []float64, seg Segment, ok bool) {
	samples, seg, ok = EstimateInto(nil, r)
	if !ok {
		return nil, Segment{}, false
	}
	return samples, seg, true
}

// EstimateInto is Estimate appending the samples into dst (pass a
// reused scratch as dst[:0]). On ok == false the returned slice is dst
// unchanged in length — callers keep it either way so grown capacity is
// retained across observations.
//
//lmvet:hotpath
func EstimateInto(dst []float64, r *traceroute.Result) (samples []float64, seg Segment, ok bool) {
	seg, ok = FindSegment(r)
	if !ok {
		return dst, Segment{}, false
	}
	samples = PairwiseSamplesInto(dst, r, seg)
	if len(samples) == len(dst) {
		return samples, Segment{}, false
	}
	return samples, seg, true
}

// Package tracetest holds test support for the traceroute codec:
// MarshalAtlas, the encoding/json reference encoder that the
// hand-written traceroute.MarshalAtlas must match byte for byte. It is
// the encode half of the differential oracle traceroute.ParseAtlas is
// for the decoder, and is imported only by tests.
package tracetest

import (
	"encoding/json"

	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// atlasResult is the RIPE Atlas traceroute result schema in
// encoding/json's field order and omission rules.
type atlasResult struct {
	Fw        int        `json:"fw"`
	AF        int        `json:"af"`
	PrbID     int        `json:"prb_id"`
	MsmID     int        `json:"msm_id"`
	Timestamp int64      `json:"timestamp"`
	SrcAddr   string     `json:"src_addr,omitempty"`
	From      string     `json:"from,omitempty"`
	DstAddr   string     `json:"dst_addr,omitempty"`
	Proto     string     `json:"proto,omitempty"`
	Result    []atlasHop `json:"result"`
}

type atlasHop struct {
	Hop    int          `json:"hop"`
	Result []atlasReply `json:"result"`
}

// atlasReply is {"x": "*"} for a timeout or {"from", "rtt", "ttl"} for
// an answer.
type atlasReply struct {
	X    string   `json:"x,omitempty"`
	From string   `json:"from,omitempty"`
	RTT  *float64 `json:"rtt,omitempty"`
	TTL  int      `json:"ttl,omitempty"`
}

// MarshalAtlas encodes r in the RIPE Atlas result JSON format by
// building the schema struct and running encoding/json over it.
func MarshalAtlas(r *traceroute.Result) ([]byte, error) {
	ar := atlasResult{
		Fw:        5020,
		AF:        r.AF,
		PrbID:     r.ProbeID,
		MsmID:     r.MsmID,
		Timestamp: r.Timestamp.Unix(),
		Proto:     r.Proto,
	}
	if r.SrcAddr.IsValid() {
		ar.SrcAddr = r.SrcAddr.String()
	}
	if r.FromAddr.IsValid() {
		ar.From = r.FromAddr.String()
	}
	if r.DstAddr.IsValid() {
		ar.DstAddr = r.DstAddr.String()
	}
	for _, h := range r.Hops {
		ah := atlasHop{Hop: h.Hop}
		for _, rep := range h.Replies {
			if rep.Timeout || !rep.From.IsValid() {
				ah.Result = append(ah.Result, atlasReply{X: "*"})
				continue
			}
			rtt := rep.RTT
			ah.Result = append(ah.Result, atlasReply{
				From: rep.From.String(),
				RTT:  &rtt,
				TTL:  rep.TTL,
			})
		}
		ar.Result = append(ar.Result, ah)
	}
	return json.Marshal(ar)
}

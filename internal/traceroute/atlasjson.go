package traceroute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"reflect"
	"strconv"
	"time"

	lmioutil "github.com/last-mile-congestion/lastmile/internal/ioutil"
)

// atlasResult mirrors the RIPE Atlas traceroute result schema (firmware
// 4460+) for ParseAtlas, the encoding/json reference decoder. Only the
// fields the pipeline needs are mapped; unknown fields are ignored.
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

// atlasReply is one probe reply: either {"x": "*"} for a timeout or
// {"from": ..., "rtt": ..., "ttl": ...} for an answer. Error replies
// ({"err": ...}) are preserved as timeouts on decode.
type atlasReply struct {
	X    string   `json:"x,omitempty"`
	Err  string   `json:"err,omitempty"`
	From string   `json:"from,omitempty"`
	RTT  *float64 `json:"rtt,omitempty"`
	TTL  int      `json:"ttl,omitempty"`
}

// MarshalAtlas encodes r in the RIPE Atlas result JSON format. The bytes
// are exactly those encoding/json produces for the Atlas schema; see
// appendAtlas.
func MarshalAtlas(r *Result) ([]byte, error) {
	return appendAtlas(nil, r)
}

// appendAtlas appends r to dst as one Atlas JSON object and returns the
// extended slice. The output is byte-identical to encoding/json over the
// schema struct, which the package tests keep as the differential oracle:
//
//   - keys fw (always 5020), af, prb_id, msm_id, timestamp (Unix
//     seconds), then src_addr, from, dst_addr and proto when non-empty,
//     then result;
//   - an answered reply is {"from","rtt","ttl"}, ttl omitted when 0; a
//     timeout or a reply without a valid address is {"x":"*"};
//   - a result with no hops and a hop with no replies encode as null;
//   - floats and strings follow encoding/json's formatting and
//     HTML-safe escaping.
//
// A non-finite RTT on an answered reply fails with encoding/json's
// *json.UnsupportedValueError, and dst comes back unextended. Appending
// into a buffer with room allocates nothing except for strings that
// need escaping (zoned addresses, unusual proto tokens).
func appendAtlas(dst []byte, r *Result) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"fw":5020,"af":`...)
	dst = strconv.AppendInt(dst, int64(r.AF), 10)
	dst = append(dst, `,"prb_id":`...)
	dst = strconv.AppendInt(dst, int64(r.ProbeID), 10)
	dst = append(dst, `,"msm_id":`...)
	dst = strconv.AppendInt(dst, int64(r.MsmID), 10)
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, r.Timestamp.Unix(), 10)
	if r.SrcAddr.IsValid() {
		dst = append(dst, `,"src_addr":`...)
		dst = appendAddr(dst, r.SrcAddr)
	}
	if r.FromAddr.IsValid() {
		dst = append(dst, `,"from":`...)
		dst = appendAddr(dst, r.FromAddr)
	}
	if r.DstAddr.IsValid() {
		dst = append(dst, `,"dst_addr":`...)
		dst = appendAddr(dst, r.DstAddr)
	}
	if r.Proto != "" {
		dst = append(dst, `,"proto":`...)
		dst = appendString(dst, r.Proto)
	}
	dst = append(dst, `,"result":`...)
	if len(r.Hops) == 0 {
		return append(dst, `null}`...), nil
	}
	for i := range r.Hops {
		h := &r.Hops[i]
		if i == 0 {
			dst = append(dst, `[{"hop":`...)
		} else {
			dst = append(dst, `,{"hop":`...)
		}
		dst = strconv.AppendInt(dst, int64(h.Hop), 10)
		if len(h.Replies) == 0 {
			dst = append(dst, `,"result":null}`...)
			continue
		}
		dst = append(dst, `,"result":[`...)
		for j := range h.Replies {
			rep := &h.Replies[j]
			if j > 0 {
				dst = append(dst, ',')
			}
			if rep.Timeout || !rep.From.IsValid() {
				dst = append(dst, `{"x":"*"}`...)
				continue
			}
			dst = append(dst, `{"from":`...)
			dst = appendAddr(dst, rep.From)
			dst = append(dst, `,"rtt":`...)
			var err error
			if dst, err = appendFloat(dst, rep.RTT); err != nil {
				return dst[:start], err
			}
			if rep.TTL != 0 {
				dst = append(dst, `,"ttl":`...)
				dst = strconv.AppendInt(dst, int64(rep.TTL), 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, `]}`...)
	}
	return append(dst, `]}`...), nil
}

// appendAddr appends a valid address as a JSON string. Only a zone can
// hold bytes that need escaping, so unzoned addresses take the
// allocation-free path.
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Zone() != "" {
		return appendString(dst, a.String())
	}
	dst = append(dst, '"')
	dst = a.AppendTo(dst)
	return append(dst, '"')
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and encoding/json's HTML-escaped <, > and &
// is copied verbatim; anything else goes through encoding/json itself,
// which allocates but cannot drift from the oracle's escaping.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// up, with a single-digit negative exponent unpadded (e-7, not e-07).
// NaN and ±Inf have no JSON form and fail as they do in encoding/json.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// ParseAtlas decodes one RIPE Atlas traceroute result.
func ParseAtlas(data []byte) (*Result, error) {
	var ar atlasResult
	if err := json.Unmarshal(data, &ar); err != nil {
		return nil, fmt.Errorf("traceroute: %w", err)
	}
	return fromAtlas(&ar)
}

func fromAtlas(ar *atlasResult) (*Result, error) {
	r := &Result{
		ProbeID:   ar.PrbID,
		MsmID:     ar.MsmID,
		Timestamp: time.Unix(ar.Timestamp, 0).UTC(),
		AF:        ar.AF,
		Proto:     ar.Proto,
	}
	var err error
	parse := func(s string) (netip.Addr, error) {
		if s == "" {
			return netip.Addr{}, nil
		}
		a, perr := netip.ParseAddr(s)
		if perr != nil {
			return netip.Addr{}, perr
		}
		return a.Unmap(), nil
	}
	if r.SrcAddr, err = parse(ar.SrcAddr); err != nil {
		return nil, fmt.Errorf("traceroute: src_addr: %w", err)
	}
	if r.FromAddr, err = parse(ar.From); err != nil {
		return nil, fmt.Errorf("traceroute: from: %w", err)
	}
	if r.DstAddr, err = parse(ar.DstAddr); err != nil {
		return nil, fmt.Errorf("traceroute: dst_addr: %w", err)
	}
	for _, ah := range ar.Result {
		h := HopResult{Hop: ah.Hop}
		for _, rep := range ah.Result {
			if rep.X != "" || rep.Err != "" || rep.From == "" || rep.RTT == nil {
				h.Replies = append(h.Replies, Reply{Timeout: true, RTT: math.NaN()})
				continue
			}
			from, perr := netip.ParseAddr(rep.From)
			if perr != nil {
				return nil, fmt.Errorf("traceroute: hop %d: bad reply address %q", ah.Hop, rep.From)
			}
			h.Replies = append(h.Replies, Reply{
				From: from.Unmap(),
				RTT:  *rep.RTT,
				TTL:  rep.TTL,
			})
		}
		r.Hops = append(r.Hops, h)
	}
	return r, nil
}

// Writer streams results as newline-delimited Atlas JSON. Every record
// is encoded into one reused buffer, so steady-state writing allocates
// nothing per record.
type Writer struct {
	w   *bufio.Writer
	buf []byte // reused encode buffer
}

// NewWriter wraps w for JSONL output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// Write appends one result as a JSON line. A result that fails to
// encode returns the error and writes nothing, so the stream stays valid
// JSONL.
func (tw *Writer) Write(r *Result) error {
	buf, err := appendAtlas(tw.buf[:0], r)
	if err != nil {
		return err
	}
	tw.buf = append(buf, '\n')
	_, err = tw.w.Write(tw.buf)
	return err
}

// Flush flushes buffered output. Call it before closing the underlying
// writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Scanner streams results from newline-delimited Atlas JSON. It owns
// one Result that every Scan decodes into, so steady-state scanning
// allocates nothing per line; see Result for the reuse contract.
type Scanner struct {
	sc   *bufio.Scanner
	res  Result
	err  error
	line int
}

// NewScanner wraps r for JSONL input, transparently decompressing
// gzip-compressed streams (Atlas dumps usually ship as .gz). Lines up to
// 4 MiB are accepted.
func NewScanner(r io.Reader) *Scanner {
	rd, err := lmioutil.MaybeGzip(r)
	if err != nil {
		// A broken gzip header surfaces as the scanner's first error.
		s := &Scanner{sc: bufio.NewScanner(r)}
		s.err = fmt.Errorf("traceroute: %w", err)
		return s
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Scanner{sc: sc}
}

// Scan advances to the next result, skipping blank lines. It returns
// false at end of input or on the first error; check Err. Each Scan
// overwrites the Result returned by Result.
//
//lmvet:hotpath
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		line := s.sc.Bytes()
		blank := true
		for _, b := range line {
			if b != ' ' && b != '\t' && b != '\r' {
				blank = false
				break
			}
		}
		if blank {
			continue
		}
		if err := ParseAtlasInto(&s.res, line); err != nil {
			s.err = fmt.Errorf("line %d: %w", s.line, err) //lmvet:ignore allocguard terminal error path: the scan is over
			return false
		}
		return true
	}
	s.err = s.sc.Err()
	return false
}

// Result returns the result decoded by the last successful Scan. The
// pointer and everything it references are valid until the next Scan
// call, which reuses the same storage; callers that retain a result
// across Scans must Clone it (or CopyFrom into their own Result).
func (s *Scanner) Result() *Result { return &s.res }

// Err returns the first error encountered, or nil at clean end of input.
func (s *Scanner) Err() error { return s.err }

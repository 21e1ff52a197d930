package traceroute

// A hand-rolled, pooled streaming tokenizer for the RIPE Atlas
// traceroute result JSON — the decode half of the zero-allocation ingest
// path. ParseAtlasInto replaces encoding/json on the hot path: it
// decodes one result into caller-owned storage, reusing the Result's hop
// and reply slices, an internal unescape scratch buffer, and interned
// protocol strings, so steady-state decoding of a stream amortises to
// zero allocations per result (the same EstimateInto/sync.Pool
// discipline the engine hot path uses, enforced by allocguard through
// the //lmvet:hotpath annotations and by the ingest benchmark gate).
//
// Semantics mirror the reference codec (ParseAtlas, which still runs
// encoding/json and serves as the differential-fuzz oracle): the same
// field set, encoding/json's case folding for key matching, JSON null as
// a field no-op (the *float64 rtt resets), invalid UTF-8 and unpaired
// surrogates replaced by U+FFFD inside strings, and identical
// timeout/error-reply folding. Where the two differ the hand parser is
// strictly *tighter* — it rejects a handful of inputs encoding/json
// accepts: duplicate occurrences of a mapped key (json merges them
// element-wise into already-decoded values; nothing produces that on
// purpose), zoned IPv6 addresses, values nested deeper than
// maxSkipDepth, and the literal -9223372036854775808 in an int field.
// FuzzParseAtlasJSON pins the containment: every input ParseAtlasInto
// accepts, ParseAtlas accepts with an identical Result.
//
// Three fast paths are branches inside this one parser, chosen by the
// input bytes, each falling back to the general code for anything it
// does not recognise:
//
//   - Predicted keys. At a key position each object parser first
//     compares the raw input with the quoted keys it maps, colon
//     included (`"rtt":`). A byte-for-byte match is exactly the key
//     readKey would decode, so both paths yield the same key id; escaped,
//     upper-case, unknown or space-padded keys take readKey.
//   - One scan per number. scanNumber validates the JSON number grammar
//     while it accumulates the mantissa and decimal exponent. Clinger's
//     path and an exact 128-bit division path (number.float) decode
//     every literal of at most 19 significant digits with an exponent
//     in their range, bit-identical to strconv.ParseFloat; anything else
//     falls back to strconv.
//   - Reused reply addresses. A reply whose "from" bytes equal those of
//     the last address parsed reuses its netip.Addr.
//
// The code avoids closures and string conversions throughout — not
// style, contract: allocguard flags both classes on hot paths, so
// object/array walking is explicit loops over enterObject/nextMember
// rather than callbacks.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// SyntaxError is the typed error every malformed input maps onto: the
// byte offset where decoding stopped making sense and a static reason.
// Decoding never panics and never silently truncates.
type SyntaxError struct {
	// Off is the byte offset into the input.
	Off int
	// Msg is the static reason.
	Msg string
}

// Error renders the offset and reason.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("traceroute: atlas json: offset %d: %s", e.Off, e.Msg)
}

// maxSkipDepth bounds the nesting of unknown (skipped) values so hostile
// input cannot overflow the stack. Tighter than encoding/json's 10000,
// which keeps the parser strictly contained in what the oracle accepts.
const maxSkipDepth = 1000

// unixZero is the timestamp encoding/json's zero int64 maps onto —
// time.Unix(0, 0).UTC() — so a result without a timestamp field decodes
// identically through both codecs.
var unixZero = time.Unix(0, 0).UTC()

// Interned protocol strings: assigning these constants instead of
// converting the token bytes keeps the steady-state decode of real Atlas
// data allocation-free.
const (
	protoICMP = "ICMP"
	protoUDP  = "UDP"
	protoTCP  = "TCP"
)

// JSON literals, compared byte-wise by expectLiteral.
const (
	litNull  = "null"
	litTrue  = "true"
	litFalse = "false"
)

// atlasParser is the per-parse state: the input cursor, two reusable
// buffers (string unescaping, reply source-address retention) and the
// last reply address parsed, which persists across parses.
type atlasParser struct {
	data     []byte
	pos      int
	scratch  []byte     // unescape buffer, valid until the next readString
	fromBuf  []byte     // holds a reply's "from" string across its object
	lastFrom []byte     // the bytes lastAddr was parsed from
	lastAddr netip.Addr // the last reply address parsed successfully
	// arena, when set, stores the hops and replies of every result
	// parsed, and each Result's Hops (and each hop's Replies) is a
	// window onto it instead of storage of the Result's own.
	arena *resultArena
}

// resultArena holds the hops and replies of many results back to back,
// so a batch of results grows two slices, not two per result and hop.
// An append that moves a slice leaves the windows taken before it on
// the old array, which nothing writes again.
type resultArena struct {
	hops    []HopResult
	replies []Reply
}

var atlasParserPool = sync.Pool{
	New: func() any {
		return &atlasParser{scratch: make([]byte, 0, 64), fromBuf: make([]byte, 0, 64)}
	},
}

// ParseAtlasInto decodes one RIPE Atlas traceroute result into r,
// reusing r's hop and reply storage. On error r's contents are
// unspecified. The decoded Result owns no part of data; strings are
// interned or copied.
//
//lmvet:hotpath
func ParseAtlasInto(r *Result, data []byte) error {
	p := atlasParserPool.Get().(*atlasParser)
	err := p.parse(r, data)
	atlasParserPool.Put(p)
	return err
}

// parse decodes data into r and drops the parser's reference to data.
func (p *atlasParser) parse(r *Result, data []byte) error {
	p.data, p.pos = data, 0
	err := p.parseResult(r)
	p.data = nil
	return err
}

// errAt builds the terminal parse error. Out of line so the hot decode
// loop pays for it only when a stream aborts.
func (p *atlasParser) errAt(msg string) error {
	return &SyntaxError{Off: p.pos, Msg: msg} //lmvet:ignore allocguard terminal error path: one allocation when a stream aborts on malformed input
}

// skipSpace advances past JSON whitespace. Every byte above ' ' ends it
// at the first test.
func (p *atlasParser) skipSpace() {
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.pos++
	}
}

// parseResult decodes the top-level value: an object (the result) or the
// literal null (a zero result, as encoding/json decodes it).
func (p *atlasParser) parseResult(r *Result) error {
	hops := r.Hops[:0]
	if p.arena != nil {
		hops = nil // a window onto storage another result may now hold
	}
	*r = Result{Timestamp: unixZero, Hops: hops}

	p.skipSpace()
	if p.pos >= len(p.data) {
		return p.errAt("unexpected end of input")
	}
	switch p.data[p.pos] {
	case 'n':
		if err := p.expectLiteral(litNull); err != nil {
			return err
		}
	case '{':
		if err := p.parseResultObject(r); err != nil {
			return err
		}
	default:
		return p.errAt("expected a result object")
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return p.errAt("trailing data after result")
	}
	return nil
}

// Key ids: every key a result, hop or reply object maps, and keyOther
// for the rest. Both key paths (predicted and readKeyID) yield an id,
// and an object's duplicate-key set holds bit 1<<id.
const (
	keyOther = iota
	keyFw
	keyAF
	keyPrbID
	keyMsmID
	keyTimestamp
	keySrcAddr
	keyFrom
	keyDstAddr
	keyProto
	keyResult
	keyHop
	keyX
	keyErr
	keyRTT
	keyTTL
	numKeys
)

// keyNames are the field names readKeyID matches decoded keys against.
var keyNames = [numKeys]string{
	keyFw: "fw", keyAF: "af", keyPrbID: "prb_id", keyMsmID: "msm_id",
	keyTimestamp: "timestamp", keySrcAddr: "src_addr", keyFrom: "from",
	keyDstAddr: "dst_addr", keyProto: "proto", keyResult: "result",
	keyHop: "hop", keyX: "x", keyErr: "err", keyRTT: "rtt", keyTTL: "ttl",
}

// The keys each object kind maps, as sets of 1<<id.
const (
	resultKeys = 1<<keyFw | 1<<keyAF | 1<<keyPrbID | 1<<keyMsmID | 1<<keyTimestamp |
		1<<keySrcAddr | 1<<keyFrom | 1<<keyDstAddr | 1<<keyProto | 1<<keyResult
	hopKeys   = 1<<keyHop | 1<<keyResult
	replyKeys = 1<<keyX | 1<<keyErr | 1<<keyFrom | 1<<keyRTT | 1<<keyTTL
)

// mark records a mapped key in an object's seen set, rejecting a second
// occurrence (see the package comment on why duplicates are rejected
// rather than merged). keyOther is never marked.
func (p *atlasParser) mark(seen *uint32, id int) error {
	if id == keyOther {
		return nil
	}
	bit := uint32(1) << id
	if *seen&bit != 0 {
		return p.errAt("duplicate object key")
	}
	*seen |= bit
	return nil
}

// predictedKeys holds each mapped key as predictKey compares it: the
// quoted name and its colon (`"rtt":`, at most 16 bytes), packed
// little-endian into two words, with masks over its length.
var predictedKeys = func() (t [numKeys]struct {
	lo, hi, loMask, hiMask uint64
	n                      int
}) {
	for id := keyOther + 1; id < numKeys; id++ {
		lit := `"` + keyNames[id] + `":`
		k := &t[id]
		k.n = len(lit)
		for i := 0; i < len(lit); i++ {
			w, m := &k.lo, &k.loMask
			if i >= 8 {
				w, m = &k.hi, &k.hiMask
			}
			*w |= uint64(lit[i]) << (8 * (i % 8))
			*m |= 0xFF << (8 * (i % 8))
		}
	}
	return t
}()

// predictKey consumes key id's quoted name and colon when the input at
// the cursor is exactly those bytes. It compares two words at once, so
// a key within 16 bytes of the end takes readKeyID instead.
func (p *atlasParser) predictKey(id int) bool {
	if len(p.data)-p.pos < 16 {
		return false
	}
	k := &predictedKeys[id]
	if binary.LittleEndian.Uint64(p.data[p.pos:])&k.loMask != k.lo ||
		binary.LittleEndian.Uint64(p.data[p.pos+8:])&k.hiMask != k.hi {
		return false
	}
	p.pos += k.n
	return true
}

// keysByFirst maps a byte to the set (1<<id) of mapped keys whose name
// starts with it.
var keysByFirst = func() (t [256]uint32) {
	for id := keyOther + 1; id < numKeys; id++ {
		t[keyNames[id][0]] |= 1 << id
	}
	return t
}()

// objectKey reads the key of a member of an object that maps the keys
// in mapped, and returns its id. It first tries as predicted keys the
// mapped keys that start with the key's first byte: one in a hop or a
// reply, at most two at the top level (fw and from, prb_id and proto).
func (p *atlasParser) objectKey(mapped uint32) (int, error) {
	p.skipSpace()
	if p.pos+1 < len(p.data) {
		for cand := keysByFirst[p.data[p.pos+1]] & mapped; cand != 0; cand &= cand - 1 {
			if id := bits.TrailingZeros32(cand); p.predictKey(id) {
				return id, nil
			}
		}
	}
	return p.readKeyID(mapped)
}

// readKeyID is the general key path: it decodes the key with readKey
// and matches it against the mapped names. keyEquals' case folding runs
// only for a key holding an ASCII upper-case letter or a non-ASCII
// byte; any other key folds onto a lower-case name only if it equals it.
func (p *atlasParser) readKeyID(mapped uint32) (int, error) {
	key, err := p.readKey()
	if err != nil {
		return keyOther, err
	}
	fold := false
	for _, c := range key {
		if c-'A' < 26 || c >= utf8.RuneSelf {
			fold = true
			break
		}
	}
	for id := keyOther + 1; id < numKeys; id++ {
		if mapped&(1<<id) == 0 {
			continue
		}
		if fold && keyEquals(key, keyNames[id]) || !fold && bytesEqualString(key, keyNames[id]) {
			return id, nil
		}
	}
	return keyOther, nil
}

// parseResultObject decodes the top-level object's fields.
func (p *atlasParser) parseResultObject(r *Result) error {
	more, err := p.enterObject()
	if err != nil {
		return err
	}
	var seen uint32
	for more {
		id, err := p.objectKey(resultKeys)
		if err != nil {
			return err
		}
		if err := p.mark(&seen, id); err != nil {
			return err
		}
		switch id {
		case keyFw:
			// Decoded for validation (the reference schema maps it) but
			// not represented in Result.
			if _, _, err := p.parseIntField(); err != nil {
				return err
			}
		case keyAF:
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.AF = int(v)
			}
		case keyPrbID:
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.ProbeID = int(v)
			}
		case keyMsmID:
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.MsmID = int(v)
			}
		case keyTimestamp:
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.Timestamp = time.Unix(v, 0).UTC()
			}
		case keySrcAddr:
			if err := p.parseAddrField(&r.SrcAddr); err != nil {
				return err
			}
		case keyFrom:
			if err := p.parseAddrField(&r.FromAddr); err != nil {
				return err
			}
		case keyDstAddr:
			if err := p.parseAddrField(&r.DstAddr); err != nil {
				return err
			}
		case keyProto:
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				r.Proto = InternProto(s)
			}
		case keyResult:
			if err := p.parseHops(r); err != nil {
				return err
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		if more, err = p.nextMember(); err != nil {
			return err
		}
	}
	return nil
}

// parseHops decodes the per-TTL hop array. A JSON null is a no-op, as
// null into a slice field is for encoding/json.
func (p *atlasParser) parseHops(r *Result) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return p.expectLiteral(litNull)
	}
	r.Hops = r.Hops[:0]
	more, err := p.enterArray()
	if err != nil {
		return err
	}
	a := p.arena
	var first int
	if a != nil {
		first = len(a.hops)
	}
	for more {
		var h *HopResult
		if a == nil {
			h = r.AddHop()
		} else {
			a.hops = append(a.hops, HopResult{}) //lmvet:ignore allocguard the arena grows to its largest batch, then every batch reuses it
			h = &a.hops[len(a.hops)-1]
		}
		if err := p.parseHop(h); err != nil {
			return err
		}
		if more, err = p.nextElem(); err != nil {
			return err
		}
	}
	if a != nil {
		r.Hops = a.hops[first:len(a.hops):len(a.hops)]
	}
	return nil
}

// parseHop decodes one hop object (or null: a zero hop).
func (p *atlasParser) parseHop(h *HopResult) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return p.expectLiteral(litNull)
	}
	more, err := p.enterObject()
	if err != nil {
		return err
	}
	var seen uint32
	for more {
		id, err := p.objectKey(hopKeys)
		if err != nil {
			return err
		}
		if err := p.mark(&seen, id); err != nil {
			return err
		}
		switch id {
		case keyHop:
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				h.Hop = int(v)
			}
		case keyResult:
			if err := p.parseReplies(h); err != nil {
				return err
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		if more, err = p.nextMember(); err != nil {
			return err
		}
	}
	return nil
}

// parseReplies decodes one hop's reply array. Null is a no-op like
// parseHops.
func (p *atlasParser) parseReplies(h *HopResult) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return p.expectLiteral(litNull)
	}
	h.Replies = h.Replies[:0]
	more, err := p.enterArray()
	if err != nil {
		return err
	}
	a := p.arena
	var first int
	if a != nil {
		first = len(a.replies)
	}
	for more {
		var rep *Reply
		if a == nil {
			rep = h.AddReply()
		} else {
			a.replies = append(a.replies, Reply{}) //lmvet:ignore allocguard the arena grows to its largest batch, then every batch reuses it
			rep = &a.replies[len(a.replies)-1]
		}
		if err := p.parseReply(rep); err != nil {
			return err
		}
		if more, err = p.nextElem(); err != nil {
			return err
		}
	}
	if a != nil {
		h.Replies = a.replies[first:len(a.replies):len(a.replies)]
	}
	return nil
}

// parseReply decodes one reply object, folding it exactly as the
// reference codec does: a reply with a non-empty "x" or "err", an empty
// or missing "from", or no "rtt" is a timeout with NaN RTT; anything
// else must carry a parseable source address.
func (p *atlasParser) parseReply(rep *Reply) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		// null element: the zero reply folds to a timeout.
		if err := p.expectLiteral(litNull); err != nil {
			return err
		}
		rep.Timeout = true
		rep.RTT = math.NaN()
		return nil
	}
	more, err := p.enterObject()
	if err != nil {
		return err
	}
	var seen uint32
	var sawX, sawErr, rttSet, hasFrom, fromSame bool
	var rtt float64
	var ttl int
	for more {
		id, err := p.objectKey(replyKeys)
		if err != nil {
			return err
		}
		if err := p.mark(&seen, id); err != nil {
			return err
		}
		switch id {
		case keyX:
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				sawX = len(s) > 0
			}
		case keyErr:
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				sawErr = len(s) > 0
			}
		case keyFrom:
			if p.sameFrom() {
				hasFrom, fromSame = true, true
				break
			}
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				// Retained for after the object: whether it must parse
				// as an address depends on fields that may follow (rtt,
				// x, err).
				hasFrom, fromSame = len(s) > 0, false
				p.fromBuf = append(p.fromBuf[:0], s...)
			}
		case keyRTT:
			// *float64 in the reference schema: null is an explicit
			// absent value, not a no-op.
			p.skipSpace()
			if p.pos < len(p.data) && p.data[p.pos] == 'n' {
				if err := p.expectLiteral(litNull); err != nil {
					return err
				}
				rttSet = false
				break
			}
			v, err := p.parseFloatValue()
			if err != nil {
				return err
			}
			rtt, rttSet = v, true
		case keyTTL:
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				ttl = int(v)
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		if more, err = p.nextMember(); err != nil {
			return err
		}
	}
	if sawX || sawErr || !hasFrom || !rttSet {
		rep.Timeout = true
		rep.RTT = math.NaN()
		return nil
	}
	if !fromSame {
		addr, ok := parseAddrBytes(p.fromBuf)
		if !ok {
			return p.errAt("bad reply address")
		}
		p.lastAddr = addr
		p.lastFrom, p.fromBuf = p.fromBuf, p.lastFrom
	}
	rep.From = p.lastAddr
	rep.RTT = rtt
	rep.TTL = ttl
	return nil
}

// sameFrom consumes a "from" value that repeats the last address parsed:
// replies mostly repeat the previous responder. It matches the raw
// input against the quoted lastFrom, which decodes to lastFrom itself
// because a valid address holds no byte a JSON string escapes.
func (p *atlasParser) sameFrom() bool {
	n := len(p.lastFrom)
	if n == 0 || len(p.data)-p.pos < n+2 || p.data[p.pos] != '"' || p.data[p.pos+n+1] != '"' ||
		!bytes.Equal(p.data[p.pos+1:p.pos+n+1], p.lastFrom) {
		return false
	}
	p.pos += n + 2
	return true
}

// parseAddrField decodes a string field into an address: the empty
// string is the invalid address (field absent), anything else must
// parse. JSON null leaves the reset (invalid) value.
func (p *atlasParser) parseAddrField(dst *netip.Addr) error {
	s, isNull, err := p.parseStringField()
	if err != nil || isNull {
		return err
	}
	if len(s) == 0 {
		*dst = netip.Addr{}
		return nil
	}
	addr, ok := parseAddrBytes(s)
	if !ok {
		return p.errAt("bad address")
	}
	*dst = addr
	return nil
}

// InternProto maps a protocol token onto its interned constant (ICMP,
// UDP, TCP, ""), so decoding real measurement data never allocates for
// the protocol string. Both decode paths — this parser and the binary
// wire codec — share it.
func InternProto(s []byte) string {
	switch {
	case len(s) == 0:
		return ""
	case bytesEqualString(s, protoICMP):
		return protoICMP
	case bytesEqualString(s, protoUDP):
		return protoUDP
	case bytesEqualString(s, protoTCP):
		return protoTCP
	}
	return string(s) //lmvet:ignore allocguard non-standard protocol token: allocates once per result carrying one, absent from real Atlas data
}

// bytesEqualString compares without converting (a string([]byte)
// conversion is an allocation site to allocguard, and the comparison
// must stay free).
func bytesEqualString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// enterObject consumes the '{' at the cursor (every caller has skipped
// space to look at it) and reports whether the object has members; an
// empty object is consumed entirely.
func (p *atlasParser) enterObject() (bool, error) {
	if p.pos >= len(p.data) || p.data[p.pos] != '{' {
		return false, p.errAt("expected an object")
	}
	p.pos++
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return false, nil
	}
	return true, nil
}

// nextMember advances past ',' (more members) or '}' (object done)
// after a member's value.
func (p *atlasParser) nextMember() (bool, error) {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return false, p.errAt("unterminated object")
	}
	switch p.data[p.pos] {
	case ',':
		p.pos++
		return true, nil
	case '}':
		p.pos++
		return false, nil
	}
	return false, p.errAt("expected ',' or '}' in object")
}

// readKey reads `"key" :` and returns the decoded key, valid until the
// next readString (callers match it before decoding the value).
func (p *atlasParser) readKey() ([]byte, error) {
	p.skipSpace()
	key, err := p.readString()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != ':' {
		return nil, p.errAt("expected ':' after object key")
	}
	p.pos++
	return key, nil
}

// enterArray consumes the '[' at the cursor, as enterObject does '{',
// and reports whether the array has elements; an empty array is
// consumed entirely.
func (p *atlasParser) enterArray() (bool, error) {
	if p.pos >= len(p.data) || p.data[p.pos] != '[' {
		return false, p.errAt("expected an array")
	}
	p.pos++
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return false, nil
	}
	return true, nil
}

// nextElem advances past ',' (more elements) or ']' (array done) after
// an element.
func (p *atlasParser) nextElem() (bool, error) {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return false, p.errAt("unterminated array")
	}
	switch p.data[p.pos] {
	case ',':
		p.pos++
		return true, nil
	case ']':
		p.pos++
		return false, nil
	}
	return false, p.errAt("expected ',' or ']' in array")
}

// expectLiteral consumes one of the fixed literals (null, true, false).
func (p *atlasParser) expectLiteral(lit string) error {
	if len(p.data)-p.pos < len(lit) {
		return p.errAt("bad literal")
	}
	for i := 0; i < len(lit); i++ {
		if p.data[p.pos+i] != lit[i] {
			return p.errAt("bad literal")
		}
	}
	p.pos += len(lit)
	return nil
}

// parseIntField decodes an integer-typed field: a JSON number with no
// fraction or exponent, within int64 range — exactly the literals
// encoding/json accepts for an int destination — or null (isNull, a
// no-op for the caller). The one divergence is math.MinInt64 itself,
// rejected rather than decoded (tighter; no Atlas field carries it).
func (p *atlasParser) parseIntField() (v int64, isNull bool, err error) {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		if err := p.expectLiteral(litNull); err != nil {
			return 0, false, err
		}
		return 0, true, nil
	}
	var n number
	if err := p.scanNumber(&n); err != nil {
		return 0, false, err
	}
	switch {
	case n.bigInt:
		return 0, false, p.errAt("integer overflow")
	case !n.integer:
		return 0, false, p.errAt("number is not an integer")
	}
	if n.neg {
		return -int64(n.mant), false, nil
	}
	return int64(n.mant), false, nil
}

// parseFloatValue decodes a JSON number into a float64, bit-identical
// to strconv.ParseFloat: number.float's exact paths cover Atlas's
// three-decimal RTTs and the shortest round-trip literals of up to 17
// significant digits that atlasgen writes; longer mantissas and
// exponents beyond both paths fall back to strconv itself.
func (p *atlasParser) parseFloatValue() (float64, error) {
	var n number
	if err := p.scanNumber(&n); err != nil {
		return 0, err
	}
	if f, ok := n.float(); ok {
		return f, nil
	}
	f, perr := strconv.ParseFloat(string(p.data[n.start:p.pos]), 64) //lmvet:ignore allocguard slow-path conversion for literals beyond the exact paths: over 19 significant digits or a far exponent
	if perr != nil {
		return 0, p.errAt("number out of range")
	}
	return f, nil
}

// number is one JSON number literal as scanNumber accumulates it: its
// value is mant × 10^exp, negated when neg, unless inexact.
type number struct {
	start   int    // offset of the literal's first byte
	mant    uint64 // the first 19 significant digits
	exp     int    // decimal exponent of mant's last digit
	neg     bool
	inexact bool // a non-zero digit past the 19th was dropped, or |exponent part| > 10000
	integer bool // no fraction and no exponent part
	bigInt  bool // the integer part exceeds math.MaxInt64
}

// scanNumber consumes one JSON number token, validating its grammar and
// accumulating it into n, which must be zero, in the same pass.
func (p *atlasParser) scanNumber(n *number) error {
	d, i := p.data, p.pos
	n.start = i
	if i < len(d) && d[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i >= len(d):
		p.pos = i
		return p.errAt("expected a number")
	case d[i] == '0':
		i++
	case d[i]-'1' < 9:
		var dropped int
		i, n.mant, _, dropped, n.inexact = digitRun(d, i, 0)
		n.exp = dropped
	default:
		p.pos = i
		return p.errAt("expected a number")
	}
	// 19 digits hold every int64, so a dropped digit is an overflow.
	n.bigInt = n.exp > 0 || n.mant > math.MaxInt64
	n.integer = true
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i]-'0' > 9 {
			p.pos = i
			return p.errAt("bad number fraction")
		}
		n.integer = false
		var took int
		var inexact bool
		i, n.mant, took, _, inexact = digitRun(d, i, n.mant)
		n.exp -= took
		n.inexact = n.inexact || inexact
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		eneg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			eneg = d[i] == '-'
			i++
		}
		if i >= len(d) || d[i]-'0' > 9 {
			p.pos = i
			return p.errAt("bad number exponent")
		}
		n.integer = false
		ev := 0
		for ; i < len(d); i++ {
			c := d[i] - '0'
			if c > 9 {
				break
			}
			if ev <= 10000 {
				ev = ev*10 + int(c)
			}
		}
		if ev > 10000 {
			n.inexact = true
		}
		if eneg {
			ev = -ev
		}
		n.exp += ev
	}
	p.pos = i
	return nil
}

// digitRun consumes the run of ASCII digits at d[i:], appending each to
// mant while mant < 10^18, so mant keeps at most 19 significant digits
// (leading zeros are not significant: they leave mant at 0). It returns
// the cursor after the run, the new mant, how many digits it appended
// and dropped, and whether a dropped digit was non-zero.
//
// With 8 input bytes available it classifies and converts them as one
// little-endian word: a byte's high bit in nonDigit marks a non-digit,
// and the lowest marked byte is exact, since carries and borrows only
// run from a marked byte upwards. The k leading digits are shifted to
// the word's top and combined pairwise (10a+b, then 100 and 10^4 steps)
// in three multiplications.
func digitRun(d []byte, i int, mant uint64) (j int, m uint64, took, dropped int, inexact bool) {
	for i+8 <= len(d) {
		v := binary.LittleEndian.Uint64(d[i:])
		nonDigit := ((v + 0x4646464646464646) | (v - 0x3030303030303030)) & 0x8080808080808080
		k := bits.TrailingZeros64(nonDigit) >> 3
		if mant >= uint64pow10[19-k] {
			break // the 19th digit falls inside this word: go digit by digit
		}
		x := (v - 0x3030303030303030) << (64 - 8*k)
		x = x*10 + x>>8
		x = ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		mant = mant*uint64pow10[k] + x
		i += k
		took += k
		if k < 8 {
			return i, mant, took, 0, false
		}
	}
	for ; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			break
		}
		if mant < 1e18 {
			mant = mant*10 + uint64(c)
			took++
		} else {
			inexact = inexact || c != 0
			dropped++
		}
	}
	return i, mant, took, dropped, inexact
}

// float returns n's float64, correctly rounded, or ok=false when
// neither exact path applies and strconv must decide:
//
//   - Clinger (1990): a mantissa below 2^53 and a decimal exponent in
//     [-22, 22] are both exact float64s, so one multiply or divide
//     rounds once, correctly.
//   - Any mantissa of up to 19 digits with an exponent in [-19, -1]:
//     divPow10 divides in 128-bit integers and rounds the quotient
//     itself.
func (n number) float() (f float64, ok bool) {
	switch {
	case n.inexact:
		return 0, false
	case n.mant == 0:
		f = 0
	case n.mant < 1<<53 && n.exp >= -22 && n.exp <= 22:
		f = float64(n.mant)
		if n.exp > 0 {
			f *= float64pow10[n.exp]
		} else if n.exp < 0 {
			f /= float64pow10[-n.exp]
		}
	case n.exp < 0 && n.exp >= -19:
		f = divPow10(n.mant, -n.exp)
	default:
		return 0, false
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// divPow10 returns mant / 10^k rounded to the nearest float64, ties to
// even, for mant > 0 and 1 ≤ k ≤ 19 — the rounding strconv.ParseFloat
// applies. mant is shifted so the 128-by-64-bit quotient q has 63 or 64
// bits; its top 53 bits are the float's mantissa, the bits below them
// and the remainder (sticky: whether anything is left beyond q) decide
// the rounding. The result is ≥ 1e-19, far from the subnormals, and
// scaling by a power of two is exact.
func divPow10(mant uint64, k int) float64 {
	d := uint64pow10[k]
	// With mant and d both normalised to bit 63 their ratio lies in
	// (1/2, 2), so a shift of lz+t puts q in (2^62, 2^64): hi < d and
	// Div64 cannot overflow.
	lz := bits.LeadingZeros64(mant)
	t := 63 - bits.LeadingZeros64(d)
	m := mant << lz
	q, rem := bits.Div64(m>>(64-t), m<<t, d)
	drop := bits.Len64(q) - 53
	top := q >> drop
	low := q & (1<<drop - 1)
	half := uint64(1) << (drop - 1)
	if low > half || low == half && (rem != 0 || top&1 == 1) {
		top++ // top may reach 2^53, still exact
	}
	// value = top × 2^(drop-lz-t), with drop-lz-t in [-116, 8].
	return float64(top) * math.Float64frombits(uint64(1023+drop-lz-t)<<52)
}

// float64pow10 holds the powers of ten exactly representable as float64.
var float64pow10 = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// uint64pow10 holds the powers of ten that fit a uint64.
var uint64pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// parseStringField decodes a string-typed field or null. The returned
// bytes are valid until the next readString call.
func (p *atlasParser) parseStringField() (s []byte, isNull bool, err error) {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		if err := p.expectLiteral(litNull); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	s, err = p.readString()
	return s, false, err
}

// plainByte marks the string bytes readString passes through as they
// are: printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// readString consumes one JSON string token and returns its decoded
// bytes: a zero-copy sub-slice of the input when the token is plain
// ASCII without escapes, the reusable scratch buffer otherwise (valid
// until the next readString). Escapes follow encoding/json, including
// replacing unpaired surrogates and invalid UTF-8 with U+FFFD.
func (p *atlasParser) readString() ([]byte, error) {
	d := p.data
	if p.pos >= len(d) || d[p.pos] != '"' {
		return nil, p.errAt("expected a string")
	}
	start := p.pos + 1
	i := start
	for i < len(d) && plainByte[d[i]] {
		i++
	}
	p.pos = i
	if i >= len(d) {
		return nil, p.errAt("unterminated string")
	}
	switch c := d[i]; {
	case c == '"':
		p.pos++
		return d[start:i], nil
	case c == '\\' || c >= utf8.RuneSelf:
		return p.readStringSlow(start)
	}
	return nil, p.errAt("raw control character in string")
}

// readStringSlow finishes a string containing escapes or non-ASCII
// bytes, decoding into the scratch buffer.
func (p *atlasParser) readStringSlow(start int) ([]byte, error) {
	buf := append(p.scratch[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			p.scratch = buf
			return buf, nil
		case c < 0x20:
			return nil, p.errAt("raw control character in string")
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, p.errAt("unterminated escape")
			}
			e := p.data[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e) //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'b':
				buf = append(buf, '\b') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'f':
				buf = append(buf, '\f') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'n':
				buf = append(buf, '\n') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'r':
				buf = append(buf, '\r') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 't':
				buf = append(buf, '\t') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'u':
				r, err := p.readHex4()
				if err != nil {
					return nil, err
				}
				if utf16IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following valid \u low surrogate; any other
					// surrogate becomes U+FFFD on its own, with the
					// looked-at escape left for the next iteration —
					// exactly encoding/json's unquote.
					paired := false
					if utf16IsHighSurrogate(r) && p.pos+1 < len(p.data) &&
						p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
						save := p.pos
						p.pos += 2
						r2, err2 := p.readHex4()
						if err2 == nil && utf16IsLowSurrogate(r2) {
							r = 0x10000 + (r-0xD800)<<10 + (r2 - 0xDC00)
							paired = true
						} else {
							p.pos = save
						}
					}
					if !paired {
						r = uint32(utf8.RuneError)
					}
				}
				buf = utf8.AppendRune(buf, rune(r))
			default:
				return nil, p.errAt("invalid escape")
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c) //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
			} else {
				buf = append(buf, p.data[p.pos:p.pos+size]...) //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			}
			p.pos += size
		}
	}
	return nil, p.errAt("unterminated string")
}

// readHex4 decodes the 4 hex digits of a \u escape.
func (p *atlasParser) readHex4() (uint32, error) {
	if len(p.data)-p.pos < 4 {
		return 0, p.errAt("short unicode escape")
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, p.errAt("bad unicode escape")
		}
	}
	p.pos += 4
	return v, nil
}

func utf16IsSurrogate(r uint32) bool     { return r >= 0xD800 && r < 0xE000 }
func utf16IsHighSurrogate(r uint32) bool { return r >= 0xD800 && r < 0xDC00 }
func utf16IsLowSurrogate(r uint32) bool  { return r >= 0xDC00 && r < 0xE000 }

// skipValue consumes one JSON value of any shape (an unknown field),
// validating its syntax without building anything.
func (p *atlasParser) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return p.errAt("value nested too deeply")
	}
	p.skipSpace()
	if p.pos >= len(p.data) {
		return p.errAt("expected a value")
	}
	switch c := p.data[p.pos]; {
	case c == '"':
		return p.skipString()
	case c == '-' || (c >= '0' && c <= '9'):
		var n number
		return p.scanNumber(&n)
	case c == 't':
		return p.expectLiteral(litTrue)
	case c == 'f':
		return p.expectLiteral(litFalse)
	case c == 'n':
		return p.expectLiteral(litNull)
	case c == '{':
		more, err := p.enterObject()
		if err != nil {
			return err
		}
		for more {
			if _, err := p.readKey(); err != nil {
				return err
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			if more, err = p.nextMember(); err != nil {
				return err
			}
		}
		return nil
	case c == '[':
		more, err := p.enterArray()
		if err != nil {
			return err
		}
		for more {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			if more, err = p.nextElem(); err != nil {
				return err
			}
		}
		return nil
	}
	return p.errAt("expected a value")
}

// skipString validates one string token without decoding it.
func (p *atlasParser) skipString() error {
	p.pos++ // opening quote, checked by the caller
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return nil
		case c < 0x20:
			return p.errAt("raw control character in string")
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return p.errAt("unterminated escape")
			}
			switch p.data[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				p.pos++
				if _, err := p.readHex4(); err != nil {
					return err
				}
			default:
				return p.errAt("invalid escape")
			}
		default:
			p.pos++
		}
	}
	return p.errAt("unterminated string")
}

// keyEquals reports whether a decoded object key matches the lowercase
// ASCII field name under encoding/json's case folding: ASCII case plus
// the two Unicode runes whose simple-fold orbit lands on an ASCII letter
// (KELVIN SIGN K onto k, LATIN SMALL LETTER LONG S ſ onto s) — so the
// hand parser matches exactly the keys the reference codec matches.
func keyEquals(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(name) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[j] {
				return false
			}
			i++
			j++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		switch r {
		case 'K': // U+212A KELVIN SIGN
			c = 'k'
		case 'ſ': // U+017F LATIN SMALL LETTER LONG S
			c = 's'
		default:
			return false
		}
		if c != name[j] {
			return false
		}
		i += size
		j++
	}
	return j == len(name)
}

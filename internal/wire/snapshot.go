package wire

// Frame codec for serialized delay-engine state (StreamSnapshot) — the
// checkpoint/restore substrate. A snapshot stream is the standard wire
// container (header, length-prefixed frames, canonical varints). It
// opens with a base: one meta frame followed by one frame per resident
// (AS, probe) window. A checkpoint file may continue with segments, each
// recording what changed since the checkpoint before it. Every non-empty
// frame is tagged by its first byte, so a frame can never be decoded
// against the wrong schema:
//
//	snapshot := header base segment*
//	base     := meta probe*
//	segment  := mark (resident | probe)* commit
//	meta     := 0x00 binWidth(uvarint ns, whole seconds, > 0) minTraceroutes(uvarint)
//	            window(uvarint ns) maxLateness(uvarint ns)
//	            hasNewest(0|1) [newestNano(zigzag)]
//	            ingested(uvarint) dropped(uvarint) evicted(uvarint)
//	probe    := 0x01 asn(uvarint, <= MaxUint32) probeID(zigzag)
//	            nbins(uvarint) bin*
//	bin      := key(zigzag) groups(uvarint) nlo(uvarint) nhi(uvarint)
//	            loBits(8 LE)* hiBits(8 LE)*
//	mark     := the empty frame (one zero length byte)
//	resident := 0x02 asn(uvarint, <= MaxUint32) nprobes(uvarint, > 0)
//	            (probeID(zigzag) lowKey(zigzag))*
//	commit   := 0x03 newestNano(zigzag)
//	            ingested(uvarint) dropped(uvarint) evicted(uvarint)
//
// A segment's probe frames carry only changed bins, each replacing the
// resident bin with its key. Its resident frames list, per AS, every
// resident probe with its lowest bin key, from which a restorer replays
// evictions; the commit frame closes the segment. The mark is a single
// byte, so it is either on disk or not: a stream cut inside the first
// segment can never be mistaken for a stream cut inside the base.
// Nothing in this package enforces the base/segment grammar across
// frames; the engine's restorer does.
//
// Each bin serializes its samples as a two-heap median state: a
// lower-half max-heap and an upper-half min-heap, float64 bits as fixed
// little-endian words. The engine writes the one canonical layout — the
// sorted lower half descending, the upper half ascending — and reads
// any valid one, so checkpoints of engines that kept live heaps still
// restore. The decoder re-validates everything an encoder could only
// produce from a live engine — canonical varints, strictly increasing
// bin and probe keys, a bin width of whole seconds, and the two-heap
// invariants via validateHeapState — so a truncated, bit-flipped, or
// adversarial snapshot surfaces as a typed corruption error and can
// never smuggle a broken heap into a restored engine. Within what the
// validator accepts the codec is bijective, the same
// encode(decode(b)) == b property the result and log codecs pin.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
)

// Snapshot frame tags — the first payload byte of every non-empty
// frame.
const (
	snapTagMeta     byte = 0
	snapTagProbe    byte = 1
	snapTagResident byte = 2
	snapTagCommit   byte = 3
)

// SnapshotFrame is the kind of frame a SnapshotScanner last decoded.
type SnapshotFrame byte

// The frames that may follow a snapshot's meta frame.
const (
	// ProbeFrame is a probe window: a whole one in a base, the changed
	// bins of one in a segment (Probe).
	ProbeFrame SnapshotFrame = iota + 1
	// MarkFrame is the empty frame that opens every segment.
	MarkFrame
	// ResidentFrame lists one AS's resident probes (Resident).
	ResidentFrame
	// CommitFrame closes a segment (Commit).
	CommitFrame
)

// SnapshotMeta is the snapshot's configuration frame: the engine
// options that define bin semantics, the observation watermark, and the
// monotonic ingestion counters, so a restored engine reports continuous
// operator-visible statistics.
type SnapshotMeta struct {
	// BinWidth, MinTraceroutes, Window, and MaxLateness mirror the
	// engine options the state was accumulated under; a restore into an
	// engine configured differently would silently change verdicts, so
	// restorers must reject mismatches.
	BinWidth       time.Duration
	MinTraceroutes int
	Window         time.Duration
	MaxLateness    time.Duration
	// HasNewest reports whether any observation was ingested; NewestNano
	// is the watermark in unix nanoseconds when it was.
	HasNewest  bool
	NewestNano int64
	// Ingested, Dropped, and EvictedBins carry the engine's monotonic
	// counters across the restart.
	Ingested, Dropped, EvictedBins int64
}

// SnapshotBin is one (probe, bin) cell: the bin-start key (unix
// seconds), the measurement-group count, and the samples as a two-heap
// median state.
type SnapshotBin struct {
	Key    int64
	Groups int
	Lo, Hi []float64
}

// SnapshotProbe is one probe's resident window within one AS. Bins are
// ordered by strictly increasing Key — the canonical frame layout the
// decoder enforces.
type SnapshotProbe struct {
	ASN     bgp.ASN
	ProbeID int
	Bins    []SnapshotBin
}

// AppendSnapshotMeta appends the meta frame payload (without the length
// prefix) to dst. Encoding is deterministic: equal metas produce equal
// bytes.
func AppendSnapshotMeta(dst []byte, m *SnapshotMeta) []byte {
	dst = append(dst, snapTagMeta)
	dst = appendUvarint(dst, uint64(m.BinWidth))
	dst = appendUvarint(dst, uint64(m.MinTraceroutes))
	dst = appendUvarint(dst, uint64(m.Window))
	dst = appendUvarint(dst, uint64(m.MaxLateness))
	if m.HasNewest {
		dst = append(dst, 1)
		dst = appendZigzag(dst, m.NewestNano)
	} else {
		dst = append(dst, 0)
	}
	dst = appendUvarint(dst, uint64(m.Ingested))
	dst = appendUvarint(dst, uint64(m.Dropped))
	dst = appendUvarint(dst, uint64(m.EvictedBins))
	return dst
}

// decodeCount decodes a uvarint that must fit a non-negative int64.
func decodeCount(b []byte) (int64, []byte, error) {
	u, n, err := uvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if u > math.MaxInt64 {
		return 0, nil, ErrBadFrame
	}
	return int64(u), b[n:], nil
}

// DecodeSnapshotMetaInto decodes one meta frame payload into m. The
// whole payload must be consumed.
func DecodeSnapshotMetaInto(m *SnapshotMeta, payload []byte) error {
	*m = SnapshotMeta{}
	if len(payload) == 0 {
		return ErrShortFrame
	}
	if payload[0] != snapTagMeta {
		return ErrBadFrame
	}
	b := payload[1:]
	var v int64
	var err error
	if v, b, err = decodeCount(b); err != nil {
		return err
	}
	// Engines key bins by unix seconds, so a width must be whole seconds.
	if v <= 0 || v%int64(time.Second) != 0 {
		return ErrBadFrame
	}
	m.BinWidth = time.Duration(v)
	if v, b, err = decodeCount(b); err != nil {
		return err
	}
	m.MinTraceroutes = int(v)
	if v, b, err = decodeCount(b); err != nil {
		return err
	}
	m.Window = time.Duration(v)
	if v, b, err = decodeCount(b); err != nil {
		return err
	}
	m.MaxLateness = time.Duration(v)
	if len(b) == 0 {
		return ErrShortFrame
	}
	switch b[0] {
	case 0:
	case 1:
		m.HasNewest = true
	default:
		return ErrBadFrame
	}
	b = b[1:]
	if m.HasNewest {
		if m.NewestNano, b, err = decodeInt64(b); err != nil {
			return err
		}
	}
	if m.Ingested, b, err = decodeCount(b); err != nil {
		return err
	}
	if m.Dropped, b, err = decodeCount(b); err != nil {
		return err
	}
	if m.EvictedBins, b, err = decodeCount(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// AppendSnapshotProbe appends one probe-window frame payload (without
// the length prefix) to dst. Bins must already be ordered by strictly
// increasing Key and hold valid two-heap state — the layout the engine
// produces and the decoder enforces.
func AppendSnapshotProbe(dst []byte, p *SnapshotProbe) []byte {
	dst = append(dst, snapTagProbe)
	dst = appendUvarint(dst, uint64(p.ASN))
	dst = appendZigzag(dst, int64(p.ProbeID))
	dst = appendUvarint(dst, uint64(len(p.Bins)))
	for i := range p.Bins {
		bin := &p.Bins[i]
		dst = appendZigzag(dst, bin.Key)
		dst = appendUvarint(dst, uint64(bin.Groups))
		dst = appendUvarint(dst, uint64(len(bin.Lo)))
		dst = appendUvarint(dst, uint64(len(bin.Hi)))
		for _, v := range bin.Lo {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		for _, v := range bin.Hi {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// DecodeSnapshotProbeInto decodes one probe-window frame payload into
// p, reusing p's bin and heap storage, and re-validates what a correct
// encoder could only have produced from live engine state: strictly
// increasing bin keys and the two-heap median invariants
// (validateHeapState — finite samples, balanced halves, heap order,
// disjoint partition). Any violation is ErrBadFrame; on error
// p's contents are unspecified.
func DecodeSnapshotProbeInto(p *SnapshotProbe, payload []byte) error {
	bins := p.Bins[:0]
	*p = SnapshotProbe{Bins: bins}
	if len(payload) == 0 {
		return ErrShortFrame
	}
	if payload[0] != snapTagProbe {
		return ErrBadFrame
	}
	b := payload[1:]
	u, n, err := uvarint(b)
	if err != nil {
		return err
	}
	if u > math.MaxUint32 {
		return ErrBadFrame
	}
	p.ASN = bgp.ASN(u)
	b = b[n:]
	if p.ProbeID, b, err = decodeInt(b); err != nil {
		return err
	}
	nbins, n, err := uvarint(b)
	if err != nil {
		return err
	}
	b = b[n:]
	// Each bin costs at least four bytes (key, groups, two counts), so a
	// count beyond the remaining payload is structurally impossible.
	if nbins > uint64(len(b))/4 {
		return ErrBadFrame
	}
	for bi := uint64(0); bi < nbins; bi++ {
		// Reuse the previous decode's heap storage when the bins slice
		// still has capacity for this cell.
		var lo, hi []float64
		if int(bi) < cap(p.Bins) {
			prev := p.Bins[:bi+1][bi]
			lo, hi = prev.Lo[:0], prev.Hi[:0]
		}
		bin := SnapshotBin{Lo: lo, Hi: hi}
		if bin.Key, b, err = decodeInt64(b); err != nil {
			return err
		}
		if bi > 0 && bin.Key <= p.Bins[bi-1].Key {
			return ErrBadFrame
		}
		var groups int64
		if groups, b, err = decodeCount(b); err != nil {
			return err
		}
		bin.Groups = int(groups)
		nlo, n, err := uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		nhi, n, err := uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		if nlo > uint64(len(b))/8 || nhi > (uint64(len(b))-nlo*8)/8 {
			return ErrShortFrame
		}
		for i := uint64(0); i < nlo; i++ {
			bin.Lo = append(bin.Lo, math.Float64frombits(binary.LittleEndian.Uint64(b))) //lmvet:ignore allocguard heap slices reach steady-state capacity on the first restore pass, then appends reuse it
			b = b[8:]
		}
		for i := uint64(0); i < nhi; i++ {
			bin.Hi = append(bin.Hi, math.Float64frombits(binary.LittleEndian.Uint64(b))) //lmvet:ignore allocguard heap slices reach steady-state capacity on the first restore pass, then appends reuse it
			b = b[8:]
		}
		if err := validateHeapState(bin.Lo, bin.Hi); err != nil {
			return ErrBadFrame
		}
		p.Bins = append(p.Bins, bin) //lmvet:ignore allocguard bin slice reaches steady-state capacity on the first restore pass
	}
	if len(b) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// Heap-state validation errors returned by validateHeapState, wrapped
// with position context.
var (
	// errHeapInvariant marks heap-state slices that violate the two-heap
	// structure: unbalanced halves, a broken heap ordering, or an upper
	// half overlapping the lower one.
	errHeapInvariant = errors.New("wire: two-heap invariant violated")
	// errNotFinite marks a NaN or infinite sample, which the engine's
	// ordering cannot handle.
	errNotFinite = errors.New("wire: non-finite sample in heap state")
)

// validateHeapState checks that (lo, hi) is a well-formed two-heap
// median state: every sample finite, len(lo) == len(hi) or len(hi)+1,
// lo a max-heap, hi a min-heap, and max(lo) <= min(hi). It is the
// snapshot decoder's input check, so a corrupted or adversarial
// snapshot can never smuggle a broken heap into a live engine.
func validateHeapState(lo, hi []float64) error {
	for _, h := range [2][]float64{lo, hi} {
		for i, v := range h {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: sample %d is %v", errNotFinite, i, v)
			}
		}
	}
	if len(lo) != len(hi) && len(lo) != len(hi)+1 {
		return fmt.Errorf("%w: halves of %d and %d samples", errHeapInvariant, len(lo), len(hi))
	}
	if err := validateHeap(lo, lessMax); err != nil {
		return fmt.Errorf("lower half: %w", err)
	}
	if err := validateHeap(hi, lessMin); err != nil {
		return fmt.Errorf("upper half: %w", err)
	}
	if len(lo) > 0 && len(hi) > 0 && lo[0] > hi[0] {
		return fmt.Errorf("%w: lower-half max %v exceeds upper-half min %v", errHeapInvariant, lo[0], hi[0])
	}
	return nil
}

// validateHeap checks the parent-dominates-children ordering.
func validateHeap(h []float64, less func(a, b float64) bool) error {
	for i := 1; i < len(h); i++ {
		if parent := (i - 1) / 2; less(h[i], h[parent]) {
			return fmt.Errorf("%w: element %d out of order", errHeapInvariant, i)
		}
	}
	return nil
}

// lessMax orders a max-heap (parent >= children), lessMin a min-heap.
func lessMax(a, b float64) bool { return a > b }
func lessMin(a, b float64) bool { return a < b }

// SnapshotResident is a segment's residency record for one AS: every
// probe the AS holds at the checkpoint, in strictly increasing ID order,
// with the probe's lowest resident bin key. Evictions drop a probe's
// lowest keys, so a restorer replays them by deleting what lies below
// each listed key and every probe the segment does not list.
type SnapshotResident struct {
	ASN    bgp.ASN
	Probes []ResidentProbe
}

// ResidentProbe is one probe of a SnapshotResident.
type ResidentProbe struct {
	ProbeID int
	// Low is the probe's lowest resident bin key (unix seconds).
	Low int64
}

// SnapshotCommit closes a segment with the watermark and the monotonic
// counters at its checkpoint — the segment's counterpart of the meta
// frame's mutable fields.
type SnapshotCommit struct {
	NewestNano                     int64
	Ingested, Dropped, EvictedBins int64
}

// AppendSnapshotResident appends one resident frame payload (without
// the length prefix) to dst. Probes must be in strictly increasing ID
// order and non-empty, the layout the decoder enforces.
func AppendSnapshotResident(dst []byte, r *SnapshotResident) []byte {
	dst = append(dst, snapTagResident)
	dst = appendUvarint(dst, uint64(r.ASN))
	dst = appendUvarint(dst, uint64(len(r.Probes)))
	for _, p := range r.Probes {
		dst = appendZigzag(dst, int64(p.ProbeID))
		dst = appendZigzag(dst, p.Low)
	}
	return dst
}

// DecodeSnapshotResidentInto decodes one resident frame payload into r,
// reusing r's probe storage. An empty probe list or probe IDs out of
// strictly increasing order are ErrBadFrame.
func DecodeSnapshotResidentInto(r *SnapshotResident, payload []byte) error {
	probes := r.Probes[:0]
	*r = SnapshotResident{Probes: probes}
	if len(payload) == 0 {
		return ErrShortFrame
	}
	if payload[0] != snapTagResident {
		return ErrBadFrame
	}
	b := payload[1:]
	u, n, err := uvarint(b)
	if err != nil {
		return err
	}
	if u > math.MaxUint32 {
		return ErrBadFrame
	}
	r.ASN = bgp.ASN(u)
	b = b[n:]
	np, n, err := uvarint(b)
	if err != nil {
		return err
	}
	b = b[n:]
	// Each probe costs at least two bytes, so a count beyond the
	// remaining payload is structurally impossible.
	if np == 0 || np > uint64(len(b))/2 {
		return ErrBadFrame
	}
	for i := uint64(0); i < np; i++ {
		var p ResidentProbe
		if p.ProbeID, b, err = decodeInt(b); err != nil {
			return err
		}
		if i > 0 && p.ProbeID <= r.Probes[i-1].ProbeID {
			return ErrBadFrame
		}
		if p.Low, b, err = decodeInt64(b); err != nil {
			return err
		}
		r.Probes = append(r.Probes, p)
	}
	if len(b) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// AppendSnapshotCommit appends one commit frame payload (without the
// length prefix) to dst.
func AppendSnapshotCommit(dst []byte, c *SnapshotCommit) []byte {
	dst = append(dst, snapTagCommit)
	dst = appendZigzag(dst, c.NewestNano)
	dst = appendUvarint(dst, uint64(c.Ingested))
	dst = appendUvarint(dst, uint64(c.Dropped))
	dst = appendUvarint(dst, uint64(c.EvictedBins))
	return dst
}

// DecodeSnapshotCommitInto decodes one commit frame payload into c. The
// whole payload must be consumed.
func DecodeSnapshotCommitInto(c *SnapshotCommit, payload []byte) error {
	*c = SnapshotCommit{}
	if len(payload) == 0 {
		return ErrShortFrame
	}
	if payload[0] != snapTagCommit {
		return ErrBadFrame
	}
	b := payload[1:]
	var err error
	if c.NewestNano, b, err = decodeInt64(b); err != nil {
		return err
	}
	if c.Ingested, b, err = decodeCount(b); err != nil {
		return err
	}
	if c.Dropped, b, err = decodeCount(b); err != nil {
		return err
	}
	if c.EvictedBins, b, err = decodeCount(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// errProbeBeforeMeta marks a snapshot writer misuse: the meta frame
// must open the stream, exactly once.
var errProbeBeforeMeta = errors.New("wire: snapshot frame before meta frame, or a second meta frame")

// SnapshotWriter frames engine state onto w. A base writer
// (NewSnapshotWriter) takes exactly one meta frame first, then any
// number of probe-window frames. A segment writer (NewSegmentWriter)
// continues an existing stream: its first frame is the segment mark,
// then probe and resident frames, then WriteCommit. The encode buffer
// is pooled in the underlying Writer, so writing a large engine
// allocates per largest frame, not per frame.
type SnapshotWriter struct {
	w *Writer
	// open is set once frames other than meta may follow: after
	// WriteMeta on a base writer, from the start on a segment writer.
	open bool
}

// NewSnapshotWriter returns a writer producing a StreamSnapshot stream.
func NewSnapshotWriter(w io.Writer) *SnapshotWriter {
	return &SnapshotWriter{w: NewWriter(w, StreamSnapshot)}
}

// NewSegmentWriter returns a writer that appends one segment to a
// StreamSnapshot stream already on w: no header, no meta frame. The
// caller writes WriteMark, then probe and resident frames, and closes
// the segment with WriteCommit.
func NewSegmentWriter(w io.Writer) *SnapshotWriter {
	sw := &SnapshotWriter{w: NewWriter(w, StreamSnapshot), open: true}
	sw.w.wroteHeader = true
	return sw
}

// WriteMeta writes the mandatory opening meta frame of a base.
func (sw *SnapshotWriter) WriteMeta(m *SnapshotMeta) error {
	if sw.open {
		return errProbeBeforeMeta
	}
	sw.open = true
	sw.w.buf = AppendSnapshotMeta(sw.w.buf[:0], m)
	return sw.w.writeFrame(sw.w.buf)
}

// WriteProbe writes one probe-window frame.
func (sw *SnapshotWriter) WriteProbe(p *SnapshotProbe) error {
	if !sw.open {
		return errProbeBeforeMeta
	}
	sw.w.buf = AppendSnapshotProbe(sw.w.buf[:0], p)
	return sw.w.writeFrame(sw.w.buf)
}

// WriteMark writes the empty frame that opens a segment.
func (sw *SnapshotWriter) WriteMark() error {
	if !sw.open {
		return errProbeBeforeMeta
	}
	return sw.w.writeFrame(nil)
}

// WriteResident writes one segment resident frame.
func (sw *SnapshotWriter) WriteResident(r *SnapshotResident) error {
	if !sw.open {
		return errProbeBeforeMeta
	}
	sw.w.buf = AppendSnapshotResident(sw.w.buf[:0], r)
	return sw.w.writeFrame(sw.w.buf)
}

// WriteCommit writes the frame that closes a segment.
func (sw *SnapshotWriter) WriteCommit(c *SnapshotCommit) error {
	if !sw.open {
		return errProbeBeforeMeta
	}
	sw.w.buf = AppendSnapshotCommit(sw.w.buf[:0], c)
	return sw.w.writeFrame(sw.w.buf)
}

// Flush flushes buffered output. A snapshot without its meta frame is
// invalid, so Flush before WriteMeta fails rather than emitting a
// stream no reader accepts.
func (sw *SnapshotWriter) Flush() error {
	if !sw.open {
		return errProbeBeforeMeta
	}
	return sw.w.Flush()
}

// SnapshotScanner streams a snapshot back: the meta frame via Meta,
// then one frame per Scan, each decoded into owned storage that the
// next Scan overwrites — the same zero-steady-state-allocation
// discipline as Scanner. Transparently decompresses gzip.
type SnapshotScanner struct {
	f        frameReader
	meta     SnapshotMeta
	probe    SnapshotProbe
	resident SnapshotResident
	commit   SnapshotCommit
	kind     SnapshotFrame
	metaRead bool
}

// NewSnapshotScanner wraps r, which must carry a StreamSnapshot wire
// stream (optionally gzip-compressed).
func NewSnapshotScanner(r io.Reader) *SnapshotScanner {
	return &SnapshotScanner{f: newFrameReader(r)}
}

// Meta returns the snapshot's meta frame, reading it on first call. A
// stream that ends before the mandatory meta frame is a truncated
// snapshot (ErrShortFrame).
func (s *SnapshotScanner) Meta() (*SnapshotMeta, error) {
	if s.metaRead {
		return &s.meta, s.f.err
	}
	if s.f.err != nil {
		return nil, s.f.err
	}
	s.metaRead = true
	payload, err := s.f.next(StreamSnapshot)
	if err == io.EOF {
		err = s.f.corruptHere(ErrShortFrame)
	}
	if err == nil {
		if derr := DecodeSnapshotMetaInto(&s.meta, payload); derr != nil {
			err = s.f.corruptHere(derr)
		}
	}
	s.f.err = err
	return &s.meta, err
}

// Scan advances to the next frame after the meta frame, reading the
// meta frame first if Meta has not been called; Frame reports its kind.
// It returns false at end of input or on the first error; check Err.
// Each Scan overwrites the frame returned by Probe, Resident or Commit.
func (s *SnapshotScanner) Scan() bool {
	if _, err := s.Meta(); err != nil {
		return false
	}
	payload, err := s.f.next(StreamSnapshot)
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.f.err = err
		return false
	}
	if len(payload) == 0 {
		s.kind = MarkFrame
		return true
	}
	switch payload[0] {
	case snapTagProbe:
		s.kind, err = ProbeFrame, DecodeSnapshotProbeInto(&s.probe, payload)
	case snapTagResident:
		s.kind, err = ResidentFrame, DecodeSnapshotResidentInto(&s.resident, payload)
	case snapTagCommit:
		s.kind, err = CommitFrame, DecodeSnapshotCommitInto(&s.commit, payload)
	default:
		err = ErrBadFrame
	}
	if err != nil {
		s.f.err = s.f.corruptHere(err)
		return false
	}
	return true
}

// Frame reports the kind of frame the last successful Scan decoded.
func (s *SnapshotScanner) Frame() SnapshotFrame { return s.kind }

// Probe returns the window decoded by the last successful Scan of a
// ProbeFrame. The pointer and everything it references are valid until
// the next Scan call, which reuses the same storage.
func (s *SnapshotScanner) Probe() *SnapshotProbe { return &s.probe }

// Resident returns the record decoded by the last successful Scan of a
// ResidentFrame, valid until the next Scan.
func (s *SnapshotScanner) Resident() *SnapshotResident { return &s.resident }

// Commit returns the frame decoded by the last successful Scan of a
// CommitFrame, valid until the next Scan.
func (s *SnapshotScanner) Commit() *SnapshotCommit { return &s.commit }

// Err returns the first error encountered, or nil at clean end of
// input.
func (s *SnapshotScanner) Err() error { return s.f.err }

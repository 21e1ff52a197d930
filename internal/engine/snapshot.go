package engine

// Engine state serialization: Snapshot writes the engine's complete
// resident state — configuration, watermark, monotonic counters, and
// every (AS, probe, bin) cell — as a wire StreamSnapshot stream, and
// Restore rebuilds an equivalent engine from one. The equivalence is
// behavioral, pinned by TestEngineSnapshotRestoreContinue:
// restore-then-continue produces bit-identical signals, stats, and
// eviction behavior to never having stopped. A cell is written in the
// frame's two-heap layout in its one canonical form: the sorted lower
// half descending, the upper half ascending. Equal sample multisets
// therefore give equal bytes, whatever order the samples arrived in.
//
// Checkpoints extend a snapshot instead of rewriting it. WriteBase is a
// Snapshot that also records what it wrote; AppendSegment then writes
// only what changed since the last write: the changed bins whole, each
// resident probe's lowest bin key, the watermark and the counters.
// Restore reads the base and applies the segments in order.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// ErrSnapshotOptions marks a Restore whose engine options disagree with
// the state being loaded on a semantic field (bin width, traceroute
// threshold, window, lateness). Loading state across differing bin
// semantics would silently change verdicts, so it is refused instead.
var ErrSnapshotOptions = errors.New("engine: snapshot options mismatch")

// ErrTornSegment marks a checkpoint stream whose base restored but
// whose tail after the last complete segment did not: a segment cut
// short by a crash mid-append, or damaged since. Restore then returns
// the engine as of the last complete segment together with an error
// wrapping ErrTornSegment and the cause.
var ErrTornSegment = errors.New("engine: checkpoint segment torn or corrupt")

// errNothingObserved refuses a segment of an engine with no watermark:
// a commit frame always carries one.
var errNothingObserved = errors.New("engine: segment of an engine that has observed nothing")

// Snapshot serializes the engine's state to w as a wire StreamSnapshot
// stream: one meta frame, then one frame per resident (AS, probe)
// window, ASes in ascending ASN order and probes in ascending ID order,
// so equal states produce equal bytes. Each AS's shard is locked only
// while that AS is encoded; for a frame-consistent snapshot the engine
// must be quiescent (no concurrent Observe), which is how the stream
// monitor drives it — checkpoints run at a cut where nothing observes.
// Snapshot has no side effects: the sort it may apply to a bin's
// samples changes no observable state.
func (e *Engine) Snapshot(w io.Writer) error { return e.writeBase(w, false) }

// WriteBase writes exactly the bytes Snapshot writes and records every
// bin it wrote, so the next AppendSegment carries only what changes
// after it. It is the checkpoint's base write; Snapshot stays free of
// side effects, so a snapshot taken for any other reason can never hide
// a change from a later segment. After a failed WriteBase or
// AppendSegment the records describe no file, and the next checkpoint
// must be a WriteBase.
func (e *Engine) WriteBase(w io.Writer) error { return e.writeBase(w, true) }

// writeBase is Snapshot, and WriteBase when record is set.
func (e *Engine) writeBase(w io.Writer, record bool) error {
	sw := wire.NewSnapshotWriter(w)
	st := e.Stats()
	meta := wire.SnapshotMeta{
		BinWidth:       e.opts.BinWidth,
		MinTraceroutes: e.opts.MinTraceroutes,
		Window:         e.opts.Window,
		MaxLateness:    e.opts.MaxLateness,
		Ingested:       st.Ingested,
		Dropped:        st.Dropped,
		EvictedBins:    st.EvictedBins,
	}
	if n := e.newest.Load(); n != -1<<62 {
		meta.HasNewest = true
		meta.NewestNano = n
	}
	if err := sw.WriteMeta(&meta); err != nil {
		return err
	}
	// One reused probe frame: bin and lower-half storage reaches the
	// largest window once, then every probe encodes allocation-free.
	var p wire.SnapshotProbe
	var probeIDs []int
	for _, asn := range e.ASNs() {
		sh := e.shardOf(asn)
		sh.mu.Lock()
		aw := sh.ases[asn]
		if aw == nil {
			// Evicted between ASNs() and here; only possible on a
			// non-quiescent engine, and skipping is still a valid state.
			sh.mu.Unlock()
			continue
		}
		probeIDs = sortedProbeIDs(probeIDs, aw)
		for _, id := range probeIDs {
			if err := sw.WriteProbe(probeFrame(&p, asn, id, aw.probes[id], false, record)); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return sw.Flush()
}

// AppendSegment writes one checkpoint segment to w, to be appended to a
// stream holding a base and the complete segments since. Per AS, in
// ascending order, it writes a resident frame listing every resident
// probe with its lowest bin key, then a probe frame for each probe
// holding only the bins whose group count changed since the last
// WriteBase or AppendSegment (a restored engine counts as having
// written what it restored). A commit frame with the watermark and the
// counters closes the segment. The bytes written follow the changed
// bins, not the window; finding them is one in-memory walk of the
// resident bins. The engine must be quiescent, as for Snapshot.
func (e *Engine) AppendSegment(w io.Writer) error {
	newest := e.newest.Load()
	if newest == -1<<62 {
		return errNothingObserved
	}
	st := e.Stats()
	sw := wire.NewSegmentWriter(w)
	if err := sw.WriteMark(); err != nil {
		return err
	}
	var (
		res      wire.SnapshotResident
		p        wire.SnapshotProbe
		probeIDs []int
	)
	for _, asn := range e.ASNs() {
		sh := e.shardOf(asn)
		sh.mu.Lock()
		aw := sh.ases[asn]
		if aw == nil {
			sh.mu.Unlock()
			continue
		}
		probeIDs = sortedProbeIDs(probeIDs, aw)
		res.ASN, res.Probes = asn, res.Probes[:0]
		for _, id := range probeIDs {
			res.Probes = append(res.Probes, wire.ResidentProbe{ProbeID: id, Low: aw.probes[id].cells[0].key})
		}
		err := sw.WriteResident(&res)
		for _, id := range probeIDs {
			if err != nil {
				break
			}
			if probeFrame(&p, asn, id, aw.probes[id], true, true); len(p.Bins) > 0 {
				err = sw.WriteProbe(&p)
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	commit := wire.SnapshotCommit{
		NewestNano:  newest,
		Ingested:    st.Ingested,
		Dropped:     st.Dropped,
		EvictedBins: st.EvictedBins,
	}
	if err := sw.WriteCommit(&commit); err != nil {
		return err
	}
	return sw.Flush()
}

// sortedProbeIDs refills dst with aw's probe IDs in ascending order.
func sortedProbeIDs(dst []int, aw *asWindow) []int {
	dst = dst[:0]
	for id := range aw.probes {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return dst
}

// probeFrame fills p with pw's cells in key order — only those whose
// group count changed since the last write when changedOnly is set —
// and records them as written when record is set. Each cell is sorted
// and encoded canonically: Lo is the lower ceil(n/2) samples in
// descending order, copied into p's storage; Hi is the upper half in
// ascending order, aliasing the cell. A descending run is a max-heap
// and an ascending one a min-heap, so the frame is a valid two-heap
// state.
func probeFrame(p *wire.SnapshotProbe, asn bgp.ASN, id int, pw *probeWindow, changedOnly, record bool) *wire.SnapshotProbe {
	p.ASN, p.ProbeID, p.Bins = asn, id, p.Bins[:0]
	for i := range pw.cells {
		c := &pw.cells[i]
		if changedOnly && c.groups == c.saved {
			continue
		}
		c.sort()
		var lo []float64
		if n := len(p.Bins); n < cap(p.Bins) {
			lo = p.Bins[:n+1][n].Lo[:0]
		}
		h := (len(c.samples) + 1) / 2
		for j := h - 1; j >= 0; j-- {
			lo = append(lo, c.samples[j])
		}
		p.Bins = append(p.Bins, wire.SnapshotBin{Key: c.key, Groups: c.groups, Lo: lo, Hi: c.samples[h:]})
		if record {
			c.saved = c.groups
		}
	}
	return p
}

// Restore rebuilds an engine from a Snapshot stream, or from a
// checkpoint: a base followed by segments. Semantic options
// (BinWidth, MinTraceroutes, Window, MaxLateness) left zero in opts
// adopt the snapshot's values; non-zero values must match the snapshot
// (ErrSnapshotOptions otherwise). Runtime options — Shards, Metrics —
// come from opts: a snapshot taken at one shard count restores at any
// other, because shard striping never affects results.
//
// The stream is fully re-validated on the way in (wire framing,
// canonical varints, two-heap invariants, and each segment's residency
// and counters against the state it extends). A damaged base fails
// with a typed wire error and never yields a partially trusted engine.
// A segment is applied only once its commit frame has been read and
// checked, so a damaged or unfinished segment leaves the engine as of
// the last complete one: Restore returns that engine together with an
// error wrapping ErrTornSegment.
func Restore(r io.Reader, opts Options) (*Engine, error) {
	sc := wire.NewSnapshotScanner(r)
	meta, err := sc.Meta()
	if err != nil {
		return nil, err
	}
	if opts.BinWidth == 0 {
		opts.BinWidth = meta.BinWidth
	}
	if opts.MinTraceroutes == 0 {
		opts.MinTraceroutes = meta.MinTraceroutes
	}
	if opts.Window == 0 {
		opts.Window = meta.Window
	}
	if opts.MaxLateness == 0 {
		opts.MaxLateness = meta.MaxLateness
	}
	if opts.BinWidth != meta.BinWidth || opts.MinTraceroutes != meta.MinTraceroutes ||
		opts.Window != meta.Window || opts.MaxLateness != meta.MaxLateness {
		return nil, fmt.Errorf("%w: snapshot (bin=%v min=%d window=%v lateness=%v) vs options (bin=%v min=%d window=%v lateness=%v)",
			ErrSnapshotOptions,
			meta.BinWidth, meta.MinTraceroutes, meta.Window, meta.MaxLateness,
			opts.BinWidth, opts.MinTraceroutes, opts.Window, opts.MaxLateness)
	}
	rs := restorer{
		e:         New(opts),
		hasNewest: meta.HasNewest,
		state: wire.SnapshotCommit{
			NewestNano: meta.NewestNano,
			Ingested:   meta.Ingested, Dropped: meta.Dropped, EvictedBins: meta.EvictedBins,
		},
		listed: make(map[probeRef]listing),
	}
	err = rs.run(sc)
	if err != nil && !rs.baseDone {
		return nil, err
	}
	e := rs.e
	if rs.hasNewest {
		e.newest.Store(rs.state.NewestNano)
		if opts.Window > 0 {
			// The checkpointing engine swept each shard when the
			// watermark last crossed a bin boundary; starting the
			// restored shards at that same sweep mark keeps eviction
			// cadence — and the EvictedBins counter — aligned with an
			// engine that never stopped.
			swept := e.binKey(rs.state.NewestNano / int64(time.Second))
			for _, sh := range e.shards {
				sh.swept = swept
			}
		}
	}
	// Carry the monotonic counters across the restart so operator-visible
	// totals are continuous. Ingested lands on shard 0's series: per-shard
	// attribution is a live-balance diagnostic, not state worth splitting
	// a snapshot over.
	e.shards[0].ingested.Add(rs.state.Ingested)
	e.dropped.Add(rs.state.Dropped)
	e.evicted.Add(rs.state.EvictedBins)
	if err != nil {
		return e, fmt.Errorf("%w after %d complete segment(s): %w", ErrTornSegment, rs.segments, err)
	}
	return e, nil
}

// probeRef names one probe window.
type probeRef struct {
	asn bgp.ASN
	id  int
}

// listing is one probe of the open segment's resident frames: its
// lowest resident key, and whether a segment bin carries that key.
type listing struct {
	low   int64
	found bool
}

// pendingBin is one segment bin held back until its commit frame.
type pendingBin struct {
	ref probeRef
	c   cell
}

// restorer replays a checkpoint stream into a fresh engine: the base's
// probe frames directly, each segment's frames into a pending batch
// that is checked and applied only when its commit frame arrives.
type restorer struct {
	e *Engine
	// state is the watermark and counters as of the base or the last
	// applied segment.
	state     wire.SnapshotCommit
	hasNewest bool
	// baseDone is set once the base is known complete: at the first
	// segment mark or at a clean end of the stream.
	baseDone bool
	// open is set between a segment mark and its commit frame.
	open     bool
	segments int
	// The open segment: its resident probes, the last resident AS (ASes
	// strictly increase), and its bins.
	listed  map[probeRef]listing
	lastASN bgp.ASN
	pending []pendingBin
}

// badSegment reports a segment frame sequence no checkpointer writes.
func badSegment(what string) error {
	return fmt.Errorf("engine: %s: %w", what, wire.ErrBadFrame)
}

func (rs *restorer) run(sc *wire.SnapshotScanner) error {
	for sc.Scan() {
		var err error
		switch sc.Frame() {
		case wire.ProbeFrame:
			switch {
			case !rs.baseDone:
				err = rs.baseProbe(sc.Probe())
			case rs.open:
				err = rs.segmentProbe(sc.Probe())
			default:
				err = badSegment("probe frame after a commit frame")
			}
		case wire.MarkFrame:
			if rs.open {
				err = badSegment("segment mark inside a segment")
				break
			}
			rs.baseDone, rs.open = true, true
			clear(rs.listed)
			rs.pending = rs.pending[:0]
		case wire.ResidentFrame:
			err = rs.resident(sc.Resident())
		case wire.CommitFrame:
			err = rs.commit(sc.Commit())
		}
		if err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	rs.baseDone = true
	if rs.open {
		return fmt.Errorf("engine: stream ends inside segment %d: %w", rs.segments+1, wire.ErrShortFrame)
	}
	return nil
}

// restoreCell builds an owned cell from one decoded bin: the lower half
// reversed, then the upper half. A canonical frame gives sorted samples,
// so restore sorts nothing and stores the median. Any other valid heap
// layout, as older binaries wrote, stays stale and is sorted by the
// first read instead. The restored cell is what the stream holds: it
// counts as written.
func restoreCell(sb *wire.SnapshotBin) cell {
	s := make([]float64, 0, len(sb.Lo)+len(sb.Hi))
	for i := len(sb.Lo) - 1; i >= 0; i-- {
		s = append(s, sb.Lo[i])
	}
	s = append(s, sb.Hi...)
	c := cell{key: sb.Key, samples: s, groups: sb.Groups, saved: sb.Groups, med: math.NaN()}
	if len(s) > 0 && slices.IsSorted(s) {
		c.med = sortedMedian(s)
	}
	return c
}

// baseProbe restores one probe window of the base. The decoder has
// checked that its keys strictly increase.
func (rs *restorer) baseProbe(p *wire.SnapshotProbe) error {
	if len(p.Bins) == 0 {
		// A live engine drops a probe with its last bin.
		return fmt.Errorf("engine: snapshot holds probe %d of %v with no bins: %w", p.ProbeID, p.ASN, wire.ErrBadFrame)
	}
	sh := rs.e.shardOf(p.ASN)
	aw := sh.ases[p.ASN]
	if aw == nil {
		aw = &asWindow{probes: make(map[int]*probeWindow)}
		sh.ases[p.ASN] = aw
	}
	if aw.probes[p.ProbeID] != nil {
		return fmt.Errorf("engine: snapshot repeats probe %d of %v: %w", p.ProbeID, p.ASN, wire.ErrBadFrame)
	}
	pw := &probeWindow{cells: make([]cell, 0, len(p.Bins))}
	aw.probes[p.ProbeID] = pw
	sh.probes++
	for i := range p.Bins {
		pw.cells = append(pw.cells, restoreCell(&p.Bins[i]))
		sh.bins++
		sh.samples += int64(len(p.Bins[i].Lo) + len(p.Bins[i].Hi))
	}
	return nil
}

// resident records one AS's resident probes for the open segment.
func (rs *restorer) resident(r *wire.SnapshotResident) error {
	if !rs.open {
		return badSegment("resident frame outside a segment")
	}
	if len(rs.listed) > 0 && r.ASN <= rs.lastASN {
		return badSegment("resident frames out of AS order")
	}
	rs.lastASN = r.ASN
	for _, p := range r.Probes {
		rs.listed[probeRef{r.ASN, p.ProbeID}] = listing{low: p.Low}
	}
	return nil
}

// segmentProbe holds back one segment probe frame's bins. The probe
// must already be listed resident, and no bin may lie below its lowest
// resident key.
func (rs *restorer) segmentProbe(p *wire.SnapshotProbe) error {
	ref := probeRef{p.ASN, p.ProbeID}
	l, ok := rs.listed[ref]
	if !ok {
		return badSegment("segment probe frame for a probe not listed resident")
	}
	for i := range p.Bins {
		sb := &p.Bins[i]
		if sb.Key < l.low {
			return badSegment("segment bin below its probe's lowest resident key")
		}
		if sb.Key == l.low {
			l.found = true
		}
		rs.pending = append(rs.pending, pendingBin{ref: ref, c: restoreCell(sb)})
	}
	rs.listed[ref] = l
	return nil
}

// commit checks the open segment against the state it extends, then
// applies it: evictions first, then the changed bins.
func (rs *restorer) commit(c *wire.SnapshotCommit) error {
	if !rs.open {
		return badSegment("commit frame outside a segment")
	}
	if (rs.hasNewest && c.NewestNano < rs.state.NewestNano) ||
		c.Ingested < rs.state.Ingested || c.Dropped < rs.state.Dropped ||
		c.EvictedBins < rs.state.EvictedBins {
		return badSegment("segment commit moves the watermark or a counter backwards")
	}
	// Each listed probe's lowest key must survive the segment: carried
	// by a segment bin, or already resident.
	for ref, l := range rs.listed {
		if l.found {
			continue
		}
		held := false
		if aw := rs.e.shardOf(ref.asn).ases[ref.asn]; aw != nil && aw.probes[ref.id] != nil {
			_, held = aw.probes[ref.id].find(l.low)
		}
		if !held {
			return badSegment("segment lists a lowest resident key it does not hold")
		}
	}
	for _, sh := range rs.e.shards {
		for asn, aw := range sh.ases {
			for id, pw := range aw.probes {
				// An unlisted probe goes whole; a listed one loses the
				// keys below its lowest.
				k := len(pw.cells)
				if l, ok := rs.listed[probeRef{asn, id}]; ok {
					k, _ = pw.find(l.low)
				}
				sh.samples -= int64(pw.dropPrefix(k))
				sh.bins -= int64(k)
				if len(pw.cells) == 0 {
					sh.probes--
					delete(aw.probes, id)
				}
			}
			if len(aw.probes) == 0 {
				delete(sh.ases, asn)
			}
		}
	}
	for _, pb := range rs.pending {
		sh := rs.e.shardOf(pb.ref.asn)
		aw := sh.ases[pb.ref.asn]
		if aw == nil {
			aw = &asWindow{probes: make(map[int]*probeWindow)}
			sh.ases[pb.ref.asn] = aw
		}
		pw := aw.probes[pb.ref.id]
		if pw == nil {
			pw = &probeWindow{}
			aw.probes[pb.ref.id] = pw
			sh.probes++
		}
		if i, ok := pw.find(pb.c.key); ok {
			sh.samples -= int64(len(pw.cells[i].samples))
			pw.cells[i] = pb.c
		} else {
			pw.cells = slices.Insert(pw.cells, i, pb.c)
			sh.bins++
		}
		sh.samples += int64(len(pb.c.samples))
	}
	rs.state, rs.hasNewest = *c, true
	rs.open = false
	rs.segments++
	return nil
}

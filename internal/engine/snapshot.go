package engine

// Engine state serialization: Snapshot writes the engine's complete
// resident state — configuration, watermark, monotonic counters, and
// every (AS, probe, bin) two-heap median cell — as a wire StreamSnapshot
// stream, and Restore rebuilds an equivalent engine from one. The
// equivalence is behavioral, pinned by TestEngineSnapshotRestoreContinue:
// restore-then-continue produces bit-identical signals, stats, and
// eviction behavior to never having stopped.
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
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
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
// Snapshot has no side effects.
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
	// One reused probe frame: bin and heap storage reaches the largest
	// window once, then every probe encodes allocation-free.
	var p wire.SnapshotProbe
	var probeIDs []int
	var keys []int64
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
			pw := aw.probes[id]
			keys = keys[:0]
			for key := range pw.bins {
				keys = append(keys, key)
			}
			slices.Sort(keys)
			if err := sw.WriteProbe(probeFrame(&p, asn, id, pw, keys, record)); err != nil {
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
		// keys holds the changed keys of one AS's probes, probe i's run
		// ending at ends[i].
		keys []int64
		ends []int
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
		keys, ends = keys[:0], ends[:0]
		for _, id := range probeIDs {
			low := int64(math.MaxInt64)
			for key, c := range aw.probes[id].bins {
				low = min(low, key)
				if c.Groups() != c.saved {
					keys = append(keys, key)
				}
			}
			res.Probes = append(res.Probes, wire.ResidentProbe{ProbeID: id, Low: low})
			ends = append(ends, len(keys))
		}
		err := sw.WriteResident(&res)
		start := 0
		for i, id := range probeIDs {
			run := keys[start:ends[i]]
			start = ends[i]
			if err != nil || len(run) == 0 {
				continue
			}
			slices.Sort(run)
			err = sw.WriteProbe(probeFrame(&p, asn, id, aw.probes[id], run, true))
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

// probeFrame fills p with the bins of pw at keys (ascending), aliasing
// their heap storage, and records them as written when record is set.
func probeFrame(p *wire.SnapshotProbe, asn bgp.ASN, id int, pw *probeWindow, keys []int64, record bool) *wire.SnapshotProbe {
	p.ASN, p.ProbeID, p.Bins = asn, id, p.Bins[:0]
	for _, key := range keys {
		c := pw.bins[key]
		lo, hi, groups := c.Snapshot()
		p.Bins = append(p.Bins, wire.SnapshotBin{Key: key, Groups: groups, Lo: lo, Hi: hi})
		if record {
			c.saved = groups
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
	key int64
	c   *cell
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

// restoreCell builds an owned cell from one decoded bin. The scanner
// reuses heap storage across frames, so the slices are copied.
func restoreCell(ref probeRef, sb *wire.SnapshotBin) (*cell, error) {
	lo := append([]float64(nil), sb.Lo...)
	hi := append([]float64(nil), sb.Hi...)
	bin, err := timeseries.RestoreBin(lo, hi, sb.Groups)
	if err != nil {
		// Unreachable through the wire decoder, which validates heap
		// state per frame; kept for defense in depth.
		return nil, fmt.Errorf("engine: probe %d of %v: %v: %w", ref.id, ref.asn, err, wire.ErrBadFrame)
	}
	// The restored bin is what the stream holds: it counts as written.
	return &cell{IncrementalBin: bin, saved: sb.Groups}, nil
}

// baseProbe restores one probe window of the base.
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
	pw := &probeWindow{bins: make(map[int64]*cell, len(p.Bins))}
	aw.probes[p.ProbeID] = pw
	sh.probes++
	ref := probeRef{p.ASN, p.ProbeID}
	for i := range p.Bins {
		c, err := restoreCell(ref, &p.Bins[i])
		if err != nil {
			return err
		}
		pw.bins[p.Bins[i].Key] = c
		sh.bins++
		sh.samples += int64(c.Len())
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
		c, err := restoreCell(ref, sb)
		if err != nil {
			return err
		}
		if sb.Key == l.low {
			l.found = true
		}
		rs.pending = append(rs.pending, pendingBin{ref: ref, key: sb.Key, c: c})
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
		var pw *probeWindow
		if aw := rs.e.shardOf(ref.asn).ases[ref.asn]; aw != nil {
			pw = aw.probes[ref.id]
		}
		if pw == nil || pw.bins[l.low] == nil {
			return badSegment("segment lists a lowest resident key it does not hold")
		}
	}
	for _, sh := range rs.e.shards {
		for asn, aw := range sh.ases {
			for id, pw := range aw.probes {
				l, ok := rs.listed[probeRef{asn, id}]
				for key, c := range pw.bins {
					if !ok || key < l.low {
						sh.bins--
						sh.samples -= int64(c.Len())
						delete(pw.bins, key)
					}
				}
				if len(pw.bins) == 0 {
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
			pw = &probeWindow{bins: make(map[int64]*cell)}
			aw.probes[pb.ref.id] = pw
			sh.probes++
		}
		if old := pw.bins[pb.key]; old != nil {
			sh.samples -= int64(old.Len())
		} else {
			sh.bins++
		}
		pw.bins[pb.key] = pb.c
		sh.samples += int64(pb.c.Len())
	}
	rs.state, rs.hasNewest = *c, true
	rs.open = false
	rs.segments++
	return nil
}

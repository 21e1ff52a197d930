// Package engine implements the shared incremental per-probe binning
// engine of the last-mile pipeline (§2.1): bin keying, the <3-traceroute
// discard rule, exact per-bin medians, min-subtraction, and population
// aggregation. The paper's math lives here exactly once — the batch
// survey (internal/core.RunSurvey) replays a completed period through an
// unbounded engine, the streaming monitor (internal/stream.Monitor)
// drives a windowed engine continuously, and the simulator
// (internal/scenario) observes each probe population into an engine of
// its own; all produce bit-for-bit identical signals from the same
// observations.
//
// State is striped over N shards keyed by ASN, each with its own lock,
// so concurrent ingestion of different ASes never contends. The newest
// observation timestamp is a single atomic watermark; a shard sweeps
// its expired bins only when the watermark has crossed a bin boundary
// since the shard's last sweep, so eviction cost is amortised to one
// full-shard pass per bin width instead of one per ingested result.
package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// Options configures an Engine.
type Options struct {
	// BinWidth is the aggregation bin (default 30 minutes, §2.1). It
	// must be a whole number of seconds: bins are keyed by their start
	// in unix seconds.
	BinWidth time.Duration
	// MinTraceroutes is the per-bin sanity threshold (default 3): bins
	// with fewer measurement groups are gaps.
	MinTraceroutes int
	// Window bounds resident state: observations older than
	// Window+MaxLateness behind the newest observation are dropped on
	// ingest and evicted from memory. Zero means unbounded — the batch
	// replay mode, where a completed period is fed in full.
	Window time.Duration
	// MaxLateness tolerates out-of-order arrivals within a windowed
	// engine (default 1 hour when Window > 0).
	MaxLateness time.Duration
	// Shards is the number of lock stripes state is spread over, keyed
	// by ASN (default 1). Results are identical at any shard count.
	Shards int
	// Metrics is the registry the engine's instrumentation registers
	// into. Nil means a private registry: the engine is always
	// instrumented (the cost is identical either way), the registry only
	// decides who can scrape it. Sharing one registry across engines
	// shares the counter series — counts then accumulate process-wide,
	// and Stats reports the shared totals.
	Metrics *telemetry.Registry
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.BinWidth == 0 {
		o.BinWidth = lastmile.DefaultBinWidth
	}
	if o.MinTraceroutes == 0 {
		o.MinTraceroutes = lastmile.DefaultMinTraceroutes
	}
	if o.MaxLateness == 0 && o.Window > 0 {
		o.MaxLateness = time.Hour
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// Stats reports the engine's ingestion counters and live window gauges.
type Stats struct {
	// Ingested and Dropped count accepted results and results that
	// arrived beyond the lateness horizon.
	Ingested, Dropped int64
	// ASes, Probes, Bins, and Samples gauge the resident window state.
	ASes, Probes, Bins, Samples int64
	// EvictedBins counts bins removed by watermark sweeps.
	EvictedBins int64
}

// add accumulates per-shard stats into s.
func (s *Stats) add(o Stats) {
	s.Ingested += o.Ingested
	s.Dropped += o.Dropped
	s.ASes += o.ASes
	s.Probes += o.Probes
	s.Bins += o.Bins
	s.Samples += o.Samples
	s.EvictedBins += o.EvictedBins
}

// probeWindow is one probe's resident bins, ordered by strictly
// increasing key: the bin start in unix seconds (epoch-aligned, so
// batch and streaming agree on boundaries). Memory follows the
// populated bins, not the span of their keys. Cells past len(cells)
// are evicted ones whose sample storage later keys reuse.
type probeWindow struct {
	cells []cell
}

// cell is one resident (probe, bin) cell: the bin's samples, the group
// count, and the group count the last checkpoint wrote for it. Every
// accepted Observe adds exactly one group to one cell, so a cell has
// changed since the last checkpoint exactly when its group count
// differs from saved; change detection costs Observe nothing.
//
// Samples are kept in arrival order and sorted in place on the first
// median read after an append, so Observe's cost follows the samples it
// adds, not the bin's size. Sorting changes no observable state: a bin
// is the multiset of its samples.
//
// The sort also stores the median, so a refresh reads two samples only
// of the bins that changed since the last one. NaN in med means stale:
// an append has unsorted the samples since. Samples are finite, so a
// median never is NaN, and the field takes the place of a sorted flag
// rather than growing the cell past 56 bytes.
type cell struct {
	key     int64
	samples []float64
	// groups counts measurement groups (traceroutes), the unit of the
	// paper's "fewer than 3 traceroutes" discard rule.
	groups, saved int
	med           float64
}

// sort orders the samples and stores their median if an append has
// left them unsorted. An empty bin has no median and stays stale.
func (c *cell) sort() {
	if !math.IsNaN(c.med) || len(c.samples) == 0 {
		return
	}
	if len(c.samples) <= maxInsertionSort {
		insertionSort(c.samples)
	} else {
		slices.Sort(c.samples) // samples are finite: the estimator drops non-finite RTTs and the snapshot decoder rejects them
	}
	c.med = sortedMedian(c.samples)
}

// sortedMedian returns the median of ascending, non-empty samples with
// the arithmetic of stats.Median, so the two agree bit for bit.
func sortedMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return stats.Midpoint(s[n/2-1], s[n/2])
}

// maxInsertionSort is the largest bin insertionSort orders. Up to it,
// which covers the paper's 24 traceroutes of 9 samples per bin, an
// insertion sort beats slices.Sort; it is also linear in the bin for
// the few samples appended since the bin was last sorted.
const maxInsertionSort = 256

// insertionSort orders s in place.
func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v, j := s[i], i
		for ; j > 0 && s[j-1] > v; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

// median returns the bin's exact median, bit-for-bit identical to
// stats.Median over the same samples; ok is false for an empty bin. It
// reads the stored median, sorting first only after an append.
func (c *cell) median() (v float64, ok bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	c.sort()
	return c.med, true
}

// find returns the index of key's cell and true, or the index where a
// cell for key belongs and false. Records arrive roughly in time order,
// so the newest cell is tried first.
func (pw *probeWindow) find(key int64) (int, bool) {
	n := len(pw.cells)
	if n == 0 || pw.cells[n-1].key < key {
		return n, false
	}
	if pw.cells[n-1].key == key {
		return n - 1, true
	}
	lo, hi := 0, n-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pw.cells[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, pw.cells[lo].key == key
}

// insert opens an empty cell for key at index i, where find placed it.
// It reuses the sample storage of an evicted cell parked past the end
// of the slice, if there is one, and otherwise sizes the new storage
// like the newest cell's samples: a probe's bins hold similar numbers.
func (pw *probeWindow) insert(i int, key int64) {
	n := len(pw.cells)
	var spare []float64
	if n < cap(pw.cells) {
		spare = pw.cells[:n+1][n].samples[:0]
	}
	if cap(spare) == 0 && n > 0 {
		spare = make([]float64, 0, len(pw.cells[n-1].samples)) //lmvet:ignore allocguard one allocation per new bin, sized so appends rarely grow it
	}
	pw.cells = append(pw.cells, cell{}) //lmvet:ignore allocguard the cell slice grows by amortised doubling, one new cell per probe per bin width
	copy(pw.cells[i+1:], pw.cells[i:n])
	pw.cells[i] = cell{key: key, samples: spare, med: math.NaN()}
}

// dropPrefix evicts the first k cells, the lowest keys, and returns
// how many samples they held. The evicted cells are parked past the end
// of the slice for insert to reuse.
func (pw *probeWindow) dropPrefix(k int) (samples int) {
	if k == 0 {
		return 0
	}
	for i := range pw.cells[:k] {
		samples += len(pw.cells[i].samples)
	}
	// Rotate the prefix behind the survivors: three reversals, in place.
	slices.Reverse(pw.cells[:k])
	slices.Reverse(pw.cells[k:])
	slices.Reverse(pw.cells)
	pw.cells = pw.cells[:len(pw.cells)-k]
	return samples
}

// asWindow is one AS's probes.
type asWindow struct {
	probes map[int]*probeWindow
}

// shard is one lock stripe: the ASes hashing to it, plus counters and
// the eviction watermark.
type shard struct {
	mu   sync.Mutex
	ases map[bgp.ASN]*asWindow
	// swept is the newest-observation bin key the shard last swept at;
	// a sweep runs only when the global watermark crosses into a new
	// bin, amortising eviction to one pass per bin width.
	swept        int64
	probes, bins int64
	samples      int64
	// tick counts Observe calls under the shard lock for the 1-in-64
	// ingest-latency sampling — a plain int, not a metric.
	tick int64
	// ingested is the shard's accepted-result series; per-shard so
	// stripe imbalance is visible on the ops endpoint.
	ingested *telemetry.Counter
	// latency is the sampled critical-section duration of Observe on
	// this shard (lock waits show up in the contention counter instead).
	latency *telemetry.Histogram
}

// Engine is the sharded incremental delay engine. It is safe for
// concurrent use.
type Engine struct {
	opts Options
	// newest is the latest observation timestamp in unix nanoseconds,
	// advanced by CAS so ingestion never serialises across shards.
	newest atomic.Int64
	shards []*shard

	// contention counts Observe calls that found their stripe locked
	// (TryLock miss) — the operational signal for shard imbalance.
	contention *telemetry.Counter
	dropped    *telemetry.Counter
	sweeps     *telemetry.Counter
	evicted    *telemetry.Counter
	// sweepSeconds times full eviction sweeps; sweeps run once per bin
	// width per shard, so the timer cost is negligible.
	sweepSeconds *telemetry.Histogram
}

// New creates an engine.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e := &Engine{opts: opts, shards: make([]*shard, opts.Shards)}
	e.contention = reg.Counter("engine_shard_contention_total")
	e.dropped = reg.Counter("engine_dropped_total")
	e.sweeps = reg.Counter("engine_eviction_sweeps_total")
	e.evicted = reg.Counter("engine_evicted_bins_total")
	e.sweepSeconds = reg.Histogram("engine_eviction_sweep_seconds", telemetry.DefLatencyBuckets)
	// Construction-time registration: the loop is bounded by the shard
	// count and runs exactly once per engine, never on the ingest path.
	for i := range e.shards {
		e.shards[i] = &shard{
			ases:     make(map[bgp.ASN]*asWindow),
			swept:    -1 << 62,
			ingested: reg.Counter(fmt.Sprintf(`engine_ingest_total{shard="%d"}`, i)),
			latency:  reg.Histogram(fmt.Sprintf(`engine_ingest_seconds{shard="%d"}`, i), telemetry.DefLatencyBuckets),
		}
	}
	// Resident-state levels are derived from shard maps at scrape time
	// rather than maintained incrementally; last-wins replacement means a
	// rebuilt engine simply takes over the series.
	reg.GaugeFunc("engine_resident_ases", func() float64 { return float64(e.Stats().ASes) })
	reg.GaugeFunc("engine_resident_probes", func() float64 { return float64(e.Stats().Probes) })
	reg.GaugeFunc("engine_resident_bins", func() float64 { return float64(e.Stats().Bins) })
	reg.GaugeFunc("engine_resident_samples", func() float64 { return float64(e.Stats().Samples) })
	e.newest.Store(-1 << 62)
	return e
}

// Options returns the engine's effective (default-filled) options.
func (e *Engine) Options() Options { return e.opts }

// shardOf maps an ASN to its lock stripe. Fibonacci hashing spreads
// sequential ASNs (common in test and simulated worlds) evenly.
func (e *Engine) shardOf(asn bgp.ASN) *shard {
	h := uint64(asn) * 0x9e3779b97f4a7c15
	return e.shards[h%uint64(len(e.shards))]
}

// binKey returns the epoch-aligned bin start (unix seconds) covering the
// unix-second timestamp sec.
func (e *Engine) binKey(sec int64) int64 {
	w := int64(e.opts.BinWidth / time.Second)
	k := sec % w
	if k < 0 {
		k += w
	}
	return sec - k
}

// Observe ingests one measurement group (one traceroute's last-mile
// samples) for the given AS and probe at time t. It reports whether the
// result was accepted; false means it fell beyond the lateness horizon
// of a windowed engine and was dropped.
//
// This is the per-observation critical section: steady-state ingestion
// must not allocate (allocguard enforces the contract statically,
// BenchmarkMonitorObserve empirically), and telemetry under the shard
// lock is either atomic counters or gated behind the 1-in-64 sample.
//
//lmvet:hotpath
func (e *Engine) Observe(asn bgp.ASN, probeID int, t time.Time, samples []float64) bool {
	ts := t.UnixNano()
	for {
		cur := e.newest.Load()
		if ts <= cur || e.newest.CompareAndSwap(cur, ts) {
			break
		}
	}
	sh := e.shardOf(asn)
	if !sh.mu.TryLock() {
		// A miss means another goroutine holds this stripe right now;
		// the counter is how shard imbalance shows up operationally.
		e.contention.Inc()
		sh.mu.Lock()
	}
	defer sh.mu.Unlock()
	// 1-in-64 sampled critical-section latency. The tick is a plain int
	// guarded by the shard lock, and the zero Timer of the unsampled
	// path is never stopped.
	sh.tick++
	sampled := sh.tick&63 == 0
	var tm telemetry.Timer
	if sampled {
		tm = sh.latency.Start()
	}
	if e.opts.Window > 0 {
		newest := e.newest.Load()
		if ts < newest-int64(e.opts.Window)-int64(e.opts.MaxLateness) {
			e.dropped.Inc()
			if sampled {
				tm.Stop()
			}
			return false
		}
		// Amortised eviction: sweep only when the watermark entered a
		// new bin since this shard's last sweep.
		if nk := e.binKey(newest / int64(time.Second)); nk > sh.swept {
			st := e.sweepSeconds.Start() //lmvet:ignore lockorder sweep timing runs once per bin width (30min), not per observation
			e.evictShardLocked(sh, newest)
			sh.swept = nk
			st.Stop() //lmvet:ignore lockorder amortised sweep path, 1 stop per bin width
			e.sweeps.Inc()
		}
	}
	aw := sh.ases[asn]
	if aw == nil {
		aw = &asWindow{probes: make(map[int]*probeWindow)} //lmvet:ignore allocguard one window per newly seen AS, amortised to zero over steady-state ingestion
		sh.ases[asn] = aw
	}
	pw := aw.probes[probeID]
	if pw == nil {
		pw = &probeWindow{} //lmvet:ignore allocguard one window per newly seen probe, amortised to zero
		aw.probes[probeID] = pw
		sh.probes++
	}
	key := e.binKey(t.Unix())
	i, ok := pw.find(key)
	if !ok {
		pw.insert(i, key)
		sh.bins++
	}
	c := &pw.cells[i]
	c.samples = append(c.samples, samples...) //lmvet:ignore allocguard bin storage grows by amortised doubling, or reuses an evicted bin's
	c.groups++
	c.med = math.NaN()
	sh.samples += int64(len(samples))
	sh.ingested.Inc()
	if sampled {
		tm.Stop()
	}
	return true
}

// evictShardLocked removes the shard's bins that slipped out of the
// window, along with emptied probes and ASes. Eviction never changes
// results — out-of-window bins are already ignored by Signal — it only
// bounds memory.
//
//lmvet:hotpath
func (e *Engine) evictShardLocked(sh *shard, newestNano int64) {
	horizon := (newestNano - int64(e.opts.Window) - int64(e.opts.MaxLateness)) / int64(time.Second)
	for asn, aw := range sh.ases {
		for id, pw := range aw.probes {
			// find places the horizon after every key below it.
			if k, _ := pw.find(horizon); k > 0 {
				sh.samples -= int64(pw.dropPrefix(k))
				sh.bins -= int64(k)
				e.evicted.Add(int64(k))
			}
			if len(pw.cells) == 0 {
				delete(aw.probes, id)
				sh.probes--
			}
		}
		if len(aw.probes) == 0 {
			delete(sh.ases, asn)
		}
	}
}

// Watermark is one read of the engine's newest-observation watermark
// with everything derived from it. A caller that needs several of these
// facts to agree, such as a read snapshot publishing verdicts with the
// window they were computed over, takes them from one Watermark; a
// second read may land after ingest has crossed a bin boundary.
type Watermark struct {
	// Newest is the latest observation timestamp.
	Newest time.Time
	// Bin is the epoch-aligned bin key (bin-start unix seconds) covering
	// Newest.
	Bin int64
	// WindowStart and NBins are the analysis window ending at the bin
	// boundary just past Newest: [WindowStart, WindowStart +
	// NBins*BinWidth), with NBins = Window/BinWidth whole bins, so
	// WindowStart is a bin key. Both are zero for an unbounded engine.
	WindowStart time.Time
	NBins       int
}

// Watermark reads the watermark once; ok is false before any
// observation.
func (e *Engine) Watermark() (w Watermark, ok bool) {
	n := e.newest.Load()
	if n == -1<<62 {
		return Watermark{}, false
	}
	w.Newest = time.Unix(0, n).UTC()
	w.Bin = e.binKey(n / int64(time.Second))
	if e.opts.Window > 0 {
		w.NBins = int(e.opts.Window / e.opts.BinWidth)
		width := int64(e.opts.BinWidth / time.Second)
		w.WindowStart = time.Unix(w.Bin+width-int64(w.NBins)*width, 0).UTC()
	}
	return w, true
}

// NewestBin returns the epoch-aligned bin key (bin-start unix seconds)
// covering the newest observation; ok is false before any observation.
// It is the cheap bin-boundary change detector shared by checkpoint
// gating and read-snapshot refresh: a watermark load and a division,
// no locks.
func (e *Engine) NewestBin() (int64, bool) {
	n := e.newest.Load()
	if n == -1<<62 {
		return 0, false
	}
	return e.binKey(n / int64(time.Second)), true
}

// BinStart returns the start of the bin covering t: the bin key the
// engine files an observation at t under.
func (e *Engine) BinStart(t time.Time) time.Time {
	return time.Unix(e.binKey(t.Unix()), 0).UTC()
}

// WindowBounds returns the Watermark's analysis window. ok is false for
// an unbounded engine or before any observation.
func (e *Engine) WindowBounds() (start time.Time, nBins int, ok bool) {
	w, ok := e.Watermark()
	if !ok || e.opts.Window == 0 {
		return time.Time{}, 0, false
	}
	return w.WindowStart, w.NBins, true
}

// ASNs returns the ASes with resident state, sorted.
func (e *Engine) ASNs() []bgp.ASN {
	var out []bgp.ASN
	for _, sh := range e.shards {
		sh.mu.Lock()
		for asn := range sh.ases {
			out = append(out, asn)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats sums the per-shard counters and gauges. The monotonic counts are
// registry-backed, so with a shared Options.Metrics they report the
// registry's process-wide totals.
func (e *Engine) Stats() Stats {
	var out Stats
	for _, sh := range e.shards {
		sh.mu.Lock()
		out.add(Stats{
			Ingested: sh.ingested.Value(),
			ASes:     int64(len(sh.ases)), Probes: sh.probes,
			Bins: sh.bins, Samples: sh.samples,
		})
		sh.mu.Unlock()
	}
	out.Dropped = e.dropped.Value()
	out.EvictedBins = e.evicted.Value()
	return out
}

// Signal computes the §2.1 population queuing-delay signal of one AS
// over the window [start, start + nBins*BinWidth): the per-bin median
// across the AS's ProbeDelays. It returns the signal and the number of
// contributing probes.
func (e *Engine) Signal(asn bgp.ASN, start time.Time, nBins int) (*timeseries.Series, int, error) {
	qds, err := e.ProbeDelays(asn, start, nBins)
	if err != nil {
		return nil, 0, err
	}
	agg, err := timeseries.AggregateMedian(qds)
	if err != nil {
		return nil, 0, err
	}
	return agg, len(qds), nil
}

// ProbeDelays returns the §2.1 per-probe queuing-delay series of one AS
// over the window [start, start + nBins*BinWidth), in ascending probe
// ID: each probe's per-bin median RTT with bins under MinTraceroutes
// groups left as gaps, minus the probe's minimum over the window.
// Probes without a usable bin in the window are omitted; an AS with
// none is an error. Only the medians are read under the shard lock.
func (e *Engine) ProbeDelays(asn bgp.ASN, start time.Time, nBins int) ([]*timeseries.Series, error) {
	perProbe, err := e.medianSeries(asn, start, nBins)
	if err != nil {
		return nil, err
	}
	// The series are this call's own, so the minimum comes off in place.
	qds := perProbe[:0]
	for _, s := range perProbe {
		if timeseries.SubtractMinInPlace(s) == nil {
			qds = append(qds, s)
		}
	}
	if len(qds) == 0 {
		return nil, fmt.Errorf("engine: %v has no probe with a finite baseline", asn)
	}
	return qds, nil
}

// medianSeries materialises the AS's per-probe median series over the
// window under the shard lock, in ascending probe ID. Probes with no
// usable bin are omitted. A cell's index is Series.IndexOf of its key's
// time, found by integer arithmetic: floor((key·1e9 − start) /
// BinWidth) in nanoseconds, for keys from start's second on.
func (e *Engine) medianSeries(asn bgp.ASN, start time.Time, nBins int) ([]*timeseries.Series, error) {
	sh := e.shardOf(asn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	aw := sh.ases[asn]
	if aw == nil || len(aw.probes) == 0 {
		return nil, fmt.Errorf("engine: no state for %v", asn)
	}
	// Offsets are taken from start's whole second, so a key within the
	// window's span never overflows, whatever the key or the start.
	sec, nsec := start.Unix(), int64(start.Nanosecond())
	width := int64(e.opts.BinWidth)
	last := start.Add(time.Duration(nBins) * e.opts.BinWidth).Unix()
	var perProbe []*timeseries.Series
	for _, id := range sortedProbeIDs(nil, aw) {
		s, err := timeseries.NewSeries(start, e.opts.BinWidth, nBins)
		if err != nil {
			return nil, err
		}
		usable := false
		cells := aw.probes[id].cells
		for j := range cells {
			c := &cells[j]
			if c.key > last {
				break // keys ascend: the rest lie past the window
			}
			if c.key < sec || c.groups < e.opts.MinTraceroutes {
				continue
			}
			off := (c.key-sec)*int64(time.Second) - nsec
			if off < 0 {
				continue // in start's second, before start
			}
			i := off / width
			if i >= int64(nBins) {
				continue
			}
			if med, ok := c.median(); ok {
				s.Values[i] = med
				usable = true
			}
		}
		if usable {
			perProbe = append(perProbe, s)
		}
	}
	if len(perProbe) == 0 {
		return nil, fmt.Errorf("engine: %v has no usable bins in the window", asn)
	}
	return perProbe, nil
}

// Package engine implements the shared incremental per-probe binning
// engine of the last-mile pipeline (§2.1): bin keying, the <3-traceroute
// discard rule, exact incremental per-bin medians, min-subtraction, and
// population aggregation. The paper's math lives here exactly once —
// the batch survey (internal/core.RunSurvey) replays a completed period
// through an unbounded engine, and the streaming monitor
// (internal/stream.Monitor) drives a windowed engine continuously; both
// produce bit-for-bit identical signals from the same observations.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// Options configures an Engine.
type Options struct {
	// BinWidth is the aggregation bin (default 30 minutes, §2.1).
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

// probeWindow is one probe's resident bins, keyed by bin-start unix
// seconds (epoch-aligned, so batch and streaming agree on boundaries).
type probeWindow struct {
	bins map[int64]*cell
}

// cell is one resident (probe, bin) cell: the bin's incremental median
// state plus the group count the last checkpoint wrote for it. Every
// accepted Observe adds exactly one group to one cell, so a cell has
// changed since the last checkpoint exactly when its group count
// differs from saved; change detection costs Observe nothing.
type cell struct {
	timeseries.IncrementalBin
	saved int
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
			ingested: reg.Counter(fmt.Sprintf(`engine_ingest_total{shard="%d"}`, i)),                                  //lmvet:ignore metricsafe once-per-engine shard registration, not a hot path
			latency:  reg.Histogram(fmt.Sprintf(`engine_ingest_seconds{shard="%d"}`, i), telemetry.DefLatencyBuckets), //lmvet:ignore metricsafe once-per-engine shard registration, not a hot path
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
		pw = &probeWindow{bins: make(map[int64]*cell)} //lmvet:ignore allocguard one window per newly seen probe, amortised to zero
		aw.probes[probeID] = pw
		sh.probes++
	}
	key := e.binKey(t.Unix())
	b := pw.bins[key]
	if b == nil {
		b = &cell{} //lmvet:ignore allocguard one bin per probe per 30-minute window, ~1 in 1800 observations
		pw.bins[key] = b
		sh.bins++
	}
	before := b.Len()
	b.AddGroup(samples)
	sh.samples += int64(b.Len() - before)
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
			for key, b := range pw.bins {
				if key < horizon {
					sh.samples -= int64(b.Len())
					sh.bins--
					e.evicted.Inc()
					delete(pw.bins, key)
				}
			}
			if len(pw.bins) == 0 {
				delete(aw.probes, id)
				sh.probes--
			}
		}
		if len(aw.probes) == 0 {
			delete(sh.ases, asn)
		}
	}
}

// Newest returns the latest observation timestamp, or a zero time when
// nothing has been observed.
func (e *Engine) Newest() (time.Time, bool) {
	n := e.newest.Load()
	if n == -1<<62 {
		return time.Time{}, false
	}
	return time.Unix(0, n).UTC(), true
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

// WindowBounds derives the analysis window ending at the bin boundary
// just past the newest observation: [start, start + nBins*BinWidth).
// ok is false for an unbounded engine or before any observation.
func (e *Engine) WindowBounds() (start time.Time, nBins int, ok bool) {
	if e.opts.Window == 0 {
		return time.Time{}, 0, false
	}
	newest, ok := e.Newest()
	if !ok {
		return time.Time{}, 0, false
	}
	end := newest.Add(e.opts.BinWidth).Truncate(e.opts.BinWidth)
	return end.Add(-e.opts.Window), int(e.opts.Window / e.opts.BinWidth), true
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
// over the window [start, start + nBins*BinWidth): per-probe median-RTT
// series with the <MinTraceroutes discard rule applied, per-probe
// min-subtraction, then the median across probes. It returns the signal
// and the number of contributing probes. Only the per-probe snapshot
// runs under the shard lock; the aggregation happens outside it.
func (e *Engine) Signal(asn bgp.ASN, start time.Time, nBins int) (*timeseries.Series, int, error) {
	perProbe, err := e.snapshotAS(asn, start, nBins)
	if err != nil {
		return nil, 0, err
	}
	var qds []*timeseries.Series
	for _, s := range perProbe {
		qd, err := timeseries.SubtractMin(s)
		if err != nil {
			continue
		}
		qds = append(qds, qd)
	}
	if len(qds) == 0 {
		return nil, 0, fmt.Errorf("engine: %v has no probe with a finite baseline", asn)
	}
	agg, err := timeseries.AggregateMedian(qds)
	if err != nil {
		return nil, 0, err
	}
	return agg, len(qds), nil
}

// snapshotAS materialises the AS's per-probe median series over the
// window under the shard lock. Probes with no usable bin are omitted.
func (e *Engine) snapshotAS(asn bgp.ASN, start time.Time, nBins int) ([]*timeseries.Series, error) {
	sh := e.shardOf(asn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	aw := sh.ases[asn]
	if aw == nil || len(aw.probes) == 0 {
		return nil, fmt.Errorf("engine: no state for %v", asn)
	}
	var perProbe []*timeseries.Series
	for _, pw := range aw.probes {
		s, err := timeseries.NewSeries(start, e.opts.BinWidth, nBins)
		if err != nil {
			return nil, err
		}
		usable := false
		for key, b := range pw.bins {
			if b.Groups() < e.opts.MinTraceroutes {
				continue
			}
			i, ok := s.IndexOf(time.Unix(key, 0).UTC())
			if !ok {
				continue
			}
			if med, ok := b.Median(); ok {
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

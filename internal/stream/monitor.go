// Package stream provides the online variant of the last-mile pipeline
// for continuous monitoring — the operational mode of the paper's
// released tool (raclette, the Internet Health Report's delay monitor).
// Traceroute results arrive in roughly-increasing time order; the
// monitor maintains a sliding window of per-probe bins with bounded
// memory and can classify any monitored AS at any moment from the
// current window.
//
// The monitor is a thin shell over the shared incremental delay engine
// (internal/engine): last-mile estimation feeds per-AS engine shards
// with striped locks, so concurrent ingestion of different ASes never
// serialises, and classification is the §2.1 + §2.3 pipeline applied to
// the engine's window — bit-for-bit the batch pipeline's result over
// the same observations.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// Options configures a Monitor.
type Options struct {
	// Window is the sliding analysis window (default 15 days, the
	// paper's measurement-period length).
	Window time.Duration
	// BinWidth is the aggregation bin (default 30 minutes).
	BinWidth time.Duration
	// MinTraceroutes is the per-bin sanity threshold (default 3).
	MinTraceroutes int
	// Classifier configures the detector; the zero value selects
	// core.DefaultClassifierOptions.
	Classifier core.ClassifierOptions
	// MaxLateness tolerates out-of-order arrivals: results older than
	// Window+MaxLateness behind the newest observation are dropped
	// (default 1 hour).
	MaxLateness time.Duration
	// Shards is the number of engine lock stripes ingestion is spread
	// over, keyed by ASN (default GOMAXPROCS). Verdicts are identical
	// at any shard count.
	Shards int
	// Workers bounds the ClassifyAll fan-out (default GOMAXPROCS).
	// Output is identical at any worker count.
	Workers int
	// Metrics is the registry the monitor and its engine register their
	// instrumentation into. Nil means a private registry; telemetry is
	// observation-only either way — verdicts are bit-identical with or
	// without a shared registry (pinned by TestMonitorMetricsEquivalence).
	Metrics *telemetry.Registry
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 15 * 24 * time.Hour
	}
	if o.Classifier.MaxGapFrac == 0 {
		o.Classifier = core.DefaultClassifierOptions()
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports the monitor's ingestion counters and live window gauges
// (tracked ASes, probes, resident bins and samples, evicted bins), so
// operators can see window memory at a glance.
type Stats = engine.Stats

// SkippedAS records why an AS with live state could not be classified,
// so a misbehaving AS is observable instead of vanishing from the
// report.
type SkippedAS = core.SkippedAS

// Monitor ingests traceroute results and classifies ASes online. It is
// safe for concurrent use.
type Monitor struct {
	opts Options
	eng  *engine.Engine

	// ClassifyAll stage instrumentation: whole-pass duration, the two
	// per-AS stages (window signal extraction vs. §2.3 classification),
	// and verdict/skip outcome counts.
	classifyRuns    *telemetry.Counter
	classifySeconds *telemetry.Histogram
	signalStage     *telemetry.Histogram
	classifyStage   *telemetry.Histogram
	verdicts        *telemetry.Counter
	skipped         *telemetry.Counter
	ignored         *telemetry.Counter
}

// NewMonitor creates a monitor.
func NewMonitor(opts Options) *Monitor {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	eng := engine.New(engine.Options{
		BinWidth:       opts.BinWidth,
		MinTraceroutes: opts.MinTraceroutes,
		Window:         opts.Window,
		MaxLateness:    opts.MaxLateness,
		Shards:         opts.Shards,
		Metrics:        reg,
	})
	return newMonitorWithEngine(opts, eng, reg)
}

// newMonitorWithEngine wraps an already-built engine — the shared tail
// of NewMonitor and RestoreMonitor.
func newMonitorWithEngine(opts Options, eng *engine.Engine, reg *telemetry.Registry) *Monitor {
	return &Monitor{
		opts:            opts,
		eng:             eng,
		classifyRuns:    reg.Counter("stream_classify_runs_total"),
		classifySeconds: reg.Histogram("stream_classify_seconds", telemetry.DefLatencyBuckets),
		signalStage:     reg.Histogram("stream_signal_stage_seconds", telemetry.DefLatencyBuckets),
		classifyStage:   reg.Histogram("stream_classify_stage_seconds", telemetry.DefLatencyBuckets),
		verdicts:        reg.Counter("stream_verdicts_total"),
		skipped:         reg.Counter("stream_skipped_total"),
		ignored:         reg.Counter("stream_ignored_total"),
	}
}

// Snapshot serializes the monitor's engine state — window, watermark,
// counters, every resident bin — to w as a wire StreamSnapshot stream
// (see engine.Snapshot). The monitor must be quiescent: callers
// checkpoint from the goroutine that drives Observe, never concurrently
// with it.
func (m *Monitor) Snapshot(w io.Writer) error { return m.eng.Snapshot(w) }

// RestoreMonitor rebuilds a monitor from a Snapshot stream, resuming
// exactly where the snapshotting monitor stopped: same window contents,
// watermark, and counters, so continue-after-restore classifies
// bit-identically to never having stopped. Semantic options left zero
// (BinWidth, MinTraceroutes, MaxLateness — and Window, which
// deliberately skips the 15-day default here) adopt the snapshot's
// values; non-zero values must match the snapshot. Runtime options
// (Shards, Workers, Classifier, Metrics) come from opts as usual.
func RestoreMonitor(r io.Reader, opts Options) (*Monitor, error) {
	raw := opts
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	eng, err := engine.Restore(r, engine.Options{
		// Semantic fields pass through pre-default: zero means "adopt
		// whatever the snapshot was taken with".
		BinWidth:       raw.BinWidth,
		MinTraceroutes: raw.MinTraceroutes,
		Window:         raw.Window,
		MaxLateness:    raw.MaxLateness,
		Shards:         opts.Shards,
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}
	eo := eng.Options()
	if eo.Window == 0 {
		return nil, errors.New("stream: snapshot was taken from an unbounded engine, not a windowed monitor")
	}
	opts.BinWidth, opts.MinTraceroutes = eo.BinWidth, eo.MinTraceroutes
	opts.Window, opts.MaxLateness = eo.Window, eo.MaxLateness
	return newMonitorWithEngine(opts, eng, reg), nil
}

// errNilResult is allocated once; Observe must not build error values
// per call.
var errNilResult = errors.New("stream: nil result")

// observeScratch is the per-Observe reusable state: the pairwise-sample
// slice grows to its steady-state 9 samples on first use and is then
// recycled through observePool, keeping the ingest path allocation-free.
type observeScratch struct {
	samples []float64
}

var observePool = sync.Pool{
	New: func() any { return &observeScratch{samples: make([]float64, 0, 16)} },
}

// Observe ingests one traceroute result for the given AS. Results without
// a usable last-mile segment are ignored; results falling too far behind
// the newest observation are dropped and counted.
//
//lmvet:hotpath
func (m *Monitor) Observe(asn bgp.ASN, r *traceroute.Result) error {
	if r == nil {
		return errNilResult
	}
	sc := observePool.Get().(*observeScratch)
	samples, _, ok := lastmile.EstimateInto(sc.samples[:0], r)
	sc.samples = samples
	if !ok {
		observePool.Put(sc)
		m.ignored.Inc()
		return nil
	}
	m.eng.Observe(asn, r.ProbeID, r.Timestamp, samples)
	observePool.Put(sc)
	return nil
}

// Stats reports the engine's counters and live window gauges.
func (m *Monitor) Stats() Stats { return m.eng.Stats() }

// ASNs returns the ASes with live state, sorted.
func (m *Monitor) ASNs() []bgp.ASN { return m.eng.ASNs() }

// Newest returns the newest observation timestamp, or false before any
// observation.
func (m *Monitor) Newest() (time.Time, bool) { return m.eng.Newest() }

// BinWidth returns the monitor's effective aggregation bin width: after
// defaults, and after snapshot adoption on a resumed monitor.
func (m *Monitor) BinWidth() time.Duration { return m.eng.Options().BinWidth }

// NewestBin returns the bin key covering the newest observation — the
// cheap change detector daemon layers use to gate checkpointing and
// read-snapshot refresh on bin boundaries.
func (m *Monitor) NewestBin() (int64, bool) { return m.eng.NewestBin() }

// WindowBounds returns the current analysis window: [start,
// start+nBins*BinWidth) ending at the bin boundary just past the newest
// observation. ok is false before any observation.
func (m *Monitor) WindowBounds() (start time.Time, nBins int, ok bool) {
	return m.eng.WindowBounds()
}

// Verdict is the outcome of an online classification: the batch
// survey's per-AS result, with Signal the aggregated queuing delay over
// the current window.
type Verdict = core.ASResult

// ClassifyAS classifies one AS from the current window: the offline
// pipeline (§2.1 + §2.3) applied to the live engine shards.
func (m *Monitor) ClassifyAS(asn bgp.ASN) (*Verdict, error) {
	start, nBins, ok := m.eng.WindowBounds()
	if !ok {
		return nil, fmt.Errorf("stream: no observations yet for %v", asn)
	}
	st := m.signalStage.Start()
	signal, probes, err := m.eng.Signal(asn, start, nBins)
	st.Stop()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	ct := m.classifyStage.Start()
	cls, err := core.Classify(signal, m.opts.Classifier)
	ct.Stop()
	if err != nil {
		return nil, fmt.Errorf("stream: %v: %w", asn, err)
	}
	return &Verdict{ASN: asn, Probes: probes, Signal: signal, Classification: cls}, nil
}

// ClassifyAll classifies every monitored AS on the monitor's worker
// pool. Verdicts come back sorted by ASN; ASes whose window cannot be
// classified yet are returned separately with their reasons, in ASN
// order.
func (m *Monitor) ClassifyAll() ([]*Verdict, []SkippedAS) {
	defer m.classifySeconds.Start().Stop()
	m.classifyRuns.Inc()
	asns := m.eng.ASNs()
	type outcome struct {
		v      *Verdict
		reason error
	}
	// ClassifyAS never returns a non-nil error through parallel.Map's
	// error path, so the outer error is always nil.
	outcomes, _ := parallel.Map(context.Background(), m.opts.Workers, len(asns), func(i int) (outcome, error) {
		v, err := m.ClassifyAS(asns[i])
		if err != nil {
			return outcome{reason: err}, nil
		}
		return outcome{v: v}, nil
	})
	var verdicts []*Verdict
	var skipped []SkippedAS
	for i, o := range outcomes {
		if o.v != nil {
			verdicts = append(verdicts, o.v)
		} else {
			skipped = append(skipped, SkippedAS{ASN: asns[i], Reason: o.reason})
		}
	}
	m.verdicts.Add(int64(len(verdicts)))
	m.skipped.Add(int64(len(skipped)))
	return verdicts, skipped
}

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
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// Options configures a Monitor. The engine's lock stripes, keyed by
// ASN, and the ClassifyAll fan-out both follow GOMAXPROCS; verdicts are
// identical at any setting.
type Options struct {
	// Window is the sliding analysis window (default 15 days, the
	// paper's measurement-period length).
	Window time.Duration
	// BinWidth is the aggregation bin (default 30 minutes). It must be a
	// whole number of seconds: the engine keys bins by their start in
	// unix seconds.
	BinWidth time.Duration
	// MinTraceroutes is the per-bin sanity threshold (default 3).
	MinTraceroutes int
	// Classifier configures the detector. It reaches core.Classify as
	// set, and Classify gives each zero field its default.
	Classifier core.ClassifierOptions
	// MaxLateness tolerates out-of-order arrivals: results older than
	// Window+MaxLateness behind the newest observation are dropped
	// (default 1 hour).
	MaxLateness time.Duration
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

	// classify instruments the classification pass (stream_* names);
	// ignored counts records without a usable last-mile segment.
	classify *core.ClassifyMetrics
	ignored  *telemetry.Counter

	// Checkpointer accounting: bytes of successful base and segment
	// writes, and failed checkpoints.
	checkpointBaseBytes    *telemetry.Counter
	checkpointSegmentBytes *telemetry.Counter
	checkpointErrors       *telemetry.Counter
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
		Shards:         runtime.GOMAXPROCS(0),
		Metrics:        reg,
	})
	return newMonitorWithEngine(opts, eng, reg)
}

// newMonitorWithEngine wraps an already-built engine — the shared tail
// of NewMonitor and RestoreMonitor.
func newMonitorWithEngine(opts Options, eng *engine.Engine, reg *telemetry.Registry) *Monitor {
	return &Monitor{
		opts:     opts,
		eng:      eng,
		classify: core.NewClassifyMetrics(reg, "stream"),
		ignored:  reg.Counter("stream_ignored_total"),

		checkpointBaseBytes:    reg.Counter(`stream_checkpoint_bytes_total{kind="base"}`),
		checkpointSegmentBytes: reg.Counter(`stream_checkpoint_bytes_total{kind="segment"}`),
		checkpointErrors:       reg.Counter("stream_checkpoint_errors_total"),
	}
}

// Snapshot serializes the monitor's engine state — window, watermark,
// counters, every resident bin — to w as a wire StreamSnapshot stream
// (see engine.Snapshot). The monitor must be quiescent: callers
// checkpoint from the goroutine that drives Observe, never concurrently
// with it.
func (m *Monitor) Snapshot(w io.Writer) error { return m.eng.Snapshot(w) }

// RestoreMonitor rebuilds a monitor from a Snapshot stream or a
// Checkpointer's state file, resuming exactly where the checkpointed
// monitor stopped: same window contents, watermark, and counters, so
// continue-after-restore classifies bit-identically to never having
// stopped. Semantic options left zero (BinWidth, MinTraceroutes,
// MaxLateness — and Window, which deliberately skips the 15-day default
// here) adopt the snapshot's values; non-zero values must match the
// snapshot. Runtime options (Classifier, Metrics) come from opts as
// usual.
//
// When the base restores but a segment after it is torn or corrupt,
// RestoreMonitor returns the monitor as of the last complete segment
// together with an error wrapping engine.ErrTornSegment.
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
		Shards:         runtime.GOMAXPROCS(0),
		Metrics:        reg,
	})
	if eng == nil {
		return nil, err
	}
	eo := eng.Options()
	if eo.Window == 0 {
		return nil, errors.New("stream: snapshot was taken from an unbounded engine, not a windowed monitor")
	}
	opts.BinWidth, opts.MinTraceroutes = eo.BinWidth, eo.MinTraceroutes
	opts.Window, opts.MaxLateness = eo.Window, eo.MaxLateness
	return newMonitorWithEngine(opts, eng, reg), err
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

// Watermark is one read of the newest observation with its bin and its
// analysis window (see engine.Watermark).
type Watermark = engine.Watermark

// Watermark reads the newest observation once and derives its bin and
// its analysis window from that read; ok is false before any
// observation. Callers that publish verdicts with their window classify
// with ClassifyWindow over this window, so the two cannot disagree.
func (m *Monitor) Watermark() (Watermark, bool) { return m.eng.Watermark() }

// Verdict is the outcome of an online classification: the batch
// survey's per-AS result, with Signal the aggregated queuing delay over
// the current window.
type Verdict = core.ASResult

// ClassifyAS classifies one AS from the current window: the
// core.ClassifyWindow pass over that AS alone.
func (m *Monitor) ClassifyAS(asn bgp.ASN) (*Verdict, error) {
	start, nBins, ok := m.eng.WindowBounds()
	if !ok {
		return nil, fmt.Errorf("stream: no observations yet for %v", asn)
	}
	verdicts, skipped := core.ClassifyWindow(m.eng, []bgp.ASN{asn}, start, nBins, m.opts.Classifier, 1, m.classify)
	if len(skipped) > 0 {
		return nil, skipped[0].Reason
	}
	return verdicts[0], nil
}

// ClassifyAll classifies every monitored AS over the current window,
// read once: ClassifyWindow over the Watermark's window.
func (m *Monitor) ClassifyAll() ([]*Verdict, []SkippedAS) {
	w, _ := m.eng.Watermark()
	return m.ClassifyWindow(w.WindowStart, w.NBins)
}

// ClassifyWindow classifies every monitored AS over the window [start,
// start+nBins*BinWidth): the core.ClassifyWindow pass over the engine's
// ASes on GOMAXPROCS goroutines. Every verdict covers that window
// however far ingest moves meanwhile. Verdicts come back sorted by ASN;
// ASes that cannot be classified over the window are returned
// separately with their reasons, in ASN order.
func (m *Monitor) ClassifyWindow(start time.Time, nBins int) ([]*Verdict, []SkippedAS) {
	return core.ClassifyWindow(m.eng, m.eng.ASNs(), start, nBins, m.opts.Classifier, runtime.GOMAXPROCS(0), m.classify)
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// Source yields one target's attributed traceroute results. Next must
// honour ctx — a cancelled target is draining and its Next must return
// promptly with ctx's error. Every result Next hands out is delivered
// to the engine, even when the drain lands between Next and Observe, so
// a Source can treat a returned result as consumed. The runner delivers
// it before it calls Next again, so Next may reuse the result's storage,
// and the engine then holds every result the source has handed out.
type Source interface {
	// Next returns the next result, io.EOF when the stream is
	// exhausted, or ctx.Err() when the target is draining.
	Next(ctx context.Context) (bgp.ASN, *traceroute.Result, error)
	// Close releases the source; called exactly once per opened source.
	Close() error
}

// SourceOpener opens the result stream of one target. cmd/lmserved
// opens Target.Source as a file path, cmd/lmmonitor its one input
// stream; the soak harness resolves it into a synthetic,
// fake-clock-driven timeline.
type SourceOpener func(t Target) (Source, error)

// Options configures a Daemon beyond its Config.
type Options struct {
	// Clock is the daemon's time source (nil = SystemClock). Reload
	// polls and maintenance ticks go through it, so a FakeClock makes
	// the whole daemon simulation-time driven.
	Clock Clock
	// Open opens target sources; required.
	Open SourceOpener
	// Metrics is the registry the daemon and its monitor instrument
	// (nil = a private registry). The /metrics handlers expose it.
	Metrics *telemetry.Registry
	// Logf receives operational log lines (nil = stderr).
	Logf func(format string, args ...any)
}

// targetState is a target runner's lifecycle position.
type targetState int32

const (
	// targetPending: spawned, opening its source.
	targetPending targetState = iota
	// targetIngesting: consuming its source.
	targetIngesting
	// targetFinished: source hit EOF.
	targetFinished
	// targetDrained: cancelled by a reload or shutdown.
	targetDrained
	// targetFailed: source open/read or engine delivery failed.
	targetFailed
)

// String renders the state for logs and /api/health.
func (s targetState) String() string {
	switch s {
	case targetPending:
		return "pending"
	case targetIngesting:
		return "ingesting"
	case targetFinished:
		return "finished"
	case targetDrained:
		return "drained"
	case targetFailed:
		return "failed"
	}
	return "unknown"
}

// targetRunner is one target's ingest goroutine and its observable
// state. The runner is joined through the daemon WaitGroup; done is
// closed on exit so a reload can wait for a changed target's old
// definition to drain before starting the new one.
type targetRunner struct {
	target   Target
	cancel   context.CancelFunc
	done     chan struct{}
	state    atomicState
	ingested atomicCounter
}

// atomicState is a targetState with atomic access (a thin wrapper whose
// zero value is targetPending).
type atomicState struct{ v atomic.Int32 }

func (s *atomicState) set(st targetState) { s.v.Store(int32(st)) }
func (s *atomicState) get() targetState   { return targetState(s.v.Load()) }

// atomicCounter is an int64 with atomic access.
type atomicCounter struct{ v atomic.Int64 }

func (c *atomicCounter) add(n int64) { c.v.Add(n) }
func (c *atomicCounter) get() int64  { return c.v.Load() }

// Daemon is the core of lmserved and lmmonitor: a stream.Monitor fed
// by per-target ingest goroutines, reconfigured by diffed hot reloads,
// checkpointed at bin boundaries, and read through immutable published
// snapshots.
type Daemon struct {
	path  string
	clock Clock
	open  SourceOpener
	logf  func(string, ...any)
	reg   *telemetry.Registry

	monitor *stream.Monitor
	ckpt    *stream.Checkpointer

	// cut is read-locked across each Observe and write-locked across a
	// checkpoint, which makes the checkpoint a consistent cut.
	cut sync.RWMutex

	// tick is the maintenance cadence (half the effective bin width):
	// each tick checks for a crossed bin boundary (snapshot refresh +
	// checkpoint) and for an elapsed config poll interval.
	tick time.Duration

	mu         sync.Mutex
	cfg        *Config
	gen        int64
	lastReload time.Time
	targets    map[string]*targetRunner
	draining   bool

	wg sync.WaitGroup

	snap snapshotBox

	// Instrumentation: reload and target lifecycle counters, plus the
	// snapshot-refresh and checkpoint activity the read path rides on.
	reloads      *telemetry.Counter
	reloadErrs   *telemetry.Counter
	started      *telemetry.Counter
	finished     *telemetry.Counter
	drained      *telemetry.Counter
	failures     *telemetry.Counter
	refreshes    *telemetry.Counter
	checkpoints  *telemetry.Counter
	apiRequests  *telemetry.Counter
	refreshTimer *telemetry.Histogram
}

// New builds a daemon from the config file at path: LoadConfig, then
// NewFromConfig. Reload requests re-read the file.
func New(path string, opts Options) (*Daemon, error) {
	cfg, err := LoadConfig(path)
	if err != nil {
		return nil, err
	}
	d, err := NewFromConfig(*cfg, opts)
	if err != nil {
		return nil, err
	}
	d.path = path
	return d, nil
}

// NewFromConfig builds a daemon from cfg, validated exactly like a
// parsed config file. A checkpoint at the config's
// state_path is resumed when present and usable; a corrupt one is
// logged and cold-started (stream.Open's contract). The daemon has no
// config file, so a reload request fails to load and is rejected. The
// returned daemon has not started any target — call Run.
func NewFromConfig(cfg Config, opts Options) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Open == nil {
		return nil, errors.New("serve: Options.Open is required")
	}
	clock := opts.Clock
	if clock == nil {
		clock = SystemClock()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lmserved: "+format+"\n", args...)
		}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	opened, err := stream.Open(cfg.StatePath, stream.Options{
		Window:         time.Duration(cfg.Window),
		BinWidth:       time.Duration(cfg.BinWidth),
		MinTraceroutes: cfg.MinTraceroutes,
		MaxLateness:    time.Duration(cfg.MaxLateness),
		Classifier:     cfg.classifier(),
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}
	if opened.Warning != nil {
		logf("%v", opened.Warning)
	}
	if opened.Resumed {
		logf("resumed from checkpoint %s", cfg.StatePath)
	}

	// The monitor knows its effective bin width even when the config
	// left it zero (default, or adopted from a resumed snapshot).
	effBin := opened.Monitor.BinWidth()
	d := &Daemon{
		clock:   clock,
		open:    opts.Open,
		logf:    logf,
		reg:     reg,
		monitor: opened.Monitor,
		tick:    effBin / 2,
		cfg:     &cfg,
		targets: make(map[string]*targetRunner),

		reloads:      reg.Counter("serve_reloads_total"),
		reloadErrs:   reg.Counter("serve_reload_errors_total"),
		started:      reg.Counter("serve_targets_started_total"),
		finished:     reg.Counter("serve_targets_finished_total"),
		drained:      reg.Counter("serve_targets_drained_total"),
		failures:     reg.Counter("serve_target_failures_total"),
		refreshes:    reg.Counter("serve_snapshot_refreshes_total"),
		checkpoints:  reg.Counter("serve_checkpoints_total"),
		apiRequests:  reg.Counter("serve_api_requests_total"),
		refreshTimer: reg.Histogram("serve_snapshot_refresh_seconds", telemetry.DefLatencyBuckets),
	}
	if cfg.StatePath != "" {
		d.ckpt = stream.NewCheckpointer(opened.Monitor, cfg.StatePath)
	}
	reg.GaugeFunc("serve_targets", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.targets))
	})
	// A resumed daemon can serve its restored verdicts before the first
	// new observation arrives; a cold one publishes an empty snapshot
	// so the API never sees a nil read model.
	d.refreshSnapshot()
	return d, nil
}

// Run starts every configured target and serves reloads and
// maintenance until ctx is cancelled, then drains: cancel all targets,
// join them, publish a final snapshot, and write a final checkpoint
// (the zero-data-loss half of the SIGTERM contract). hup delivers
// reload requests (SIGHUP in production, the test harness otherwise);
// it may be nil.
func (d *Daemon) Run(ctx context.Context, hup <-chan os.Signal) error {
	d.mu.Lock()
	for _, t := range DiffTargets(nil, d.cfg.Targets).Added {
		d.startTargetLocked(ctx, t)
	}
	pollEvery := time.Duration(d.cfg.PollInterval)
	d.mu.Unlock()
	nextPoll := d.clock.Now().Add(pollEvery)

	for {
		select {
		case <-ctx.Done():
			return d.drain()
		case _, ok := <-hup:
			if !ok {
				hup = nil // a closed hup channel means "no more reloads"
				continue
			}
			d.reloadFromFile(ctx, "SIGHUP")
		case <-d.clock.After(d.tick):
			d.onBinBoundary()
			d.mu.Lock()
			pollEvery = time.Duration(d.cfg.PollInterval)
			d.mu.Unlock()
			if pollEvery > 0 && !d.clock.Now().Before(nextPoll) {
				nextPoll = d.clock.Now().Add(pollEvery)
				d.reloadFromFile(ctx, "poll")
			}
		}
	}
}

// onBinBoundary refreshes the read snapshot and checkpoints iff the
// observation watermark has crossed into a new bin since the last
// refresh — the gate the Checkpointer applies. It runs on the
// maintenance tick, so a live feed refreshes once per bin and an
// archive replayed faster than real time less often.
func (d *Daemon) onBinBoundary() {
	bin, ok := d.monitor.NewestBin()
	if !ok || bin == d.snap.bin() {
		return
	}
	d.refreshSnapshot()
	if d.ckpt != nil {
		if wrote, err := d.checkpointAtCut(); err != nil {
			d.logf("checkpoint: %v", err)
		} else if wrote {
			d.checkpoints.Inc()
		}
	}
}

// checkpointAtCut runs MaybeCheckpoint at a consistent cut. It holds
// the cut's write lock for the whole call: the Observe calls in flight
// finish first and no new one starts until the checkpoint is written,
// so its counters and its bins describe the same instant.
func (d *Daemon) checkpointAtCut() (bool, error) {
	d.cut.Lock()
	defer d.cut.Unlock()
	return d.ckpt.MaybeCheckpoint()
}

// drain is the graceful-shutdown tail of Run: stop ingest, join every
// runner, publish the final read snapshot from the now-quiescent
// engine, and write the final checkpoint unconditionally — losing the
// partial bin since the last boundary is not acceptable on SIGTERM.
func (d *Daemon) drain() error {
	d.mu.Lock()
	d.draining = true
	for _, r := range d.targets {
		r.cancel()
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.refreshSnapshot()
	var err error
	if d.ckpt != nil {
		if err = d.ckpt.Checkpoint(); err == nil {
			d.checkpoints.Inc()
		}
	}
	st := d.monitor.Stats()
	d.logf("drained: ingested %d, dropped %d, window holds %d AS(es), %d bin(s)",
		st.Ingested, st.Dropped, st.ASes, st.Bins)
	return err
}

// reloadFromFile re-reads the config file and applies it; a config that
// fails to parse, validate, or that changes engine-semantic fields is
// rejected whole and the running config stays in force.
func (d *Daemon) reloadFromFile(ctx context.Context, why string) {
	next, err := LoadConfig(d.path)
	if err != nil {
		d.reloadErrs.Inc()
		d.logf("reload (%s) rejected: %v", why, err)
		return
	}
	if err := d.applyConfig(ctx, next); err != nil {
		d.reloadErrs.Inc()
		d.logf("reload (%s) rejected: %v", why, err)
		return
	}
	d.reloads.Inc()
}

// applyConfig diffs next against the running config and applies it:
// removed targets drain, added ones start, changed ones drain and
// restart under their new definition, and kept targets — and their
// in-flight windows — are never touched.
func (d *Daemon) applyConfig(ctx context.Context, next *Config) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return errors.New("serve: daemon is draining")
	}
	if err := next.ReloadableFrom(d.cfg); err != nil {
		d.mu.Unlock()
		return err
	}
	diff := DiffTargets(d.cfg.Targets, next.Targets)
	// Cancel removed and changed targets and take their join handles;
	// the waits happen outside the lock so a slow drain never blocks
	// the API's health reads.
	var waitFor []*targetRunner
	for _, t := range append(append([]Target{}, diff.Removed...), diff.Changed...) {
		if r := d.targets[t.Name]; r != nil {
			r.cancel()
			waitFor = append(waitFor, r)
			delete(d.targets, t.Name)
		}
	}
	d.cfg = next
	d.gen++
	gen := d.gen
	d.lastReload = d.clock.Now()
	d.mu.Unlock()

	for _, r := range waitFor {
		<-r.done
	}
	d.mu.Lock()
	for _, t := range append(append([]Target{}, diff.Added...), diff.Changed...) {
		d.startTargetLocked(ctx, t)
	}
	d.mu.Unlock()
	d.logf("reload applied: gen %d, +%d target(s), -%d, ~%d, %d kept",
		gen, len(diff.Added), len(diff.Removed), len(diff.Changed), len(diff.Kept))
	return nil
}

// startTargetLocked spawns one target runner; the caller holds d.mu.
func (d *Daemon) startTargetLocked(ctx context.Context, t Target) {
	tctx, cancel := context.WithCancel(ctx)
	r := &targetRunner{target: t, cancel: cancel, done: make(chan struct{})}
	d.targets[t.Name] = r
	d.wg.Add(1)
	d.started.Inc()
	go d.runTarget(tctx, r)
}

// runTarget is one target's ingest loop: open, then pull results and
// deliver them to the engine.
func (d *Daemon) runTarget(ctx context.Context, r *targetRunner) {
	defer d.wg.Done()
	defer close(r.done)
	src, err := d.open(r.target)
	if err != nil {
		r.state.set(targetFailed)
		d.failures.Inc()
		d.logf("target %s: open: %v", r.target.Name, err)
		return
	}
	defer ioutil.CloseQuiet(src)
	r.state.set(targetIngesting)
	for {
		asn, res, err := src.Next(ctx)
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			r.state.set(targetFinished)
			d.finished.Inc()
			return
		case ctx.Err() != nil:
			r.state.set(targetDrained)
			d.drained.Inc()
			return
		default:
			r.state.set(targetFailed)
			d.failures.Inc()
			d.logf("target %s: read: %v", r.target.Name, err)
			return
		}
		if asn == 0 {
			asn = r.target.ASN
		}
		// The read lock keeps a checkpoint out of the delivery. It is
		// taken unconditionally: a result Next handed out is always
		// delivered, even when the drain lands here, so the Source
		// contract — returned means consumed — holds.
		d.cut.RLock()
		oerr := d.monitor.Observe(asn, res)
		d.cut.RUnlock()
		if oerr != nil {
			r.state.set(targetFailed)
			d.failures.Inc()
			d.logf("target %s: observe: %v", r.target.Name, oerr)
			return
		}
		r.ingested.add(1)
	}
}

// WriteReport renders the published snapshot as the operator-facing
// classification table — cmd/lmserved prints it to stdout after Run
// drains, when the snapshot is final and exact.
func (d *Daemon) WriteReport(w io.Writer) error {
	s := d.snap.load()
	fmt.Fprintf(w, "== lmserved report (gen %d) ==\n", s.Gen)
	if !s.Newest.IsZero() {
		fmt.Fprintf(w, "window: %s + %d x %s (newest %s)\n",
			s.WindowStart.UTC().Format(time.RFC3339), s.NBins, s.BinWidth,
			s.Newest.UTC().Format(time.RFC3339))
	}
	if len(s.Verdicts) == 0 && len(s.Skipped) == 0 {
		_, err := fmt.Fprintln(w, "(no classifiable AS — windows never warmed up)")
		return err
	}
	return WriteVerdictTable(w, s.Verdicts, s.Skipped)
}

// WriteVerdictTable renders verdicts as the classification table, one
// row per AS with its signal as a sparkline, then one line per skipped
// AS with its reason. Callers write their own header and their own
// message for a window with neither.
func WriteVerdictTable(w io.Writer, verdicts []*stream.Verdict, skipped []stream.SkippedAS) error {
	if len(verdicts) > 0 {
		tb := report.NewTable("AS", "probes", "class", "daily amp (ms)", "window signal")
		for _, v := range verdicts {
			tb.AddRowf(v.ASN.String(), v.Probes, v.Class.String(),
				fmt.Sprintf("%.2f", v.DailyAmplitude),
				report.Sparkline(report.Downsample(v.Signal.Values, 48), 0))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
	}
	for _, sk := range skipped {
		fmt.Fprintf(w, "skipped %s: %v\n", sk.ASN, sk.Reason)
	}
	return nil
}

// ListenHTTP serves Handler on the config's http_addr and logs the bound
// address. The returned stop closes the server and waits for it to
// return. With no http_addr it serves nothing and stop does nothing.
func (d *Daemon) ListenHTTP() (stop func(), err error) {
	d.mu.Lock()
	addr := d.cfg.HTTPAddr // reload-frozen: the startup value stays authoritative
	d.mu.Unlock()
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	srv := &http.Server{Handler: d.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns ErrServerClosed once stop closes the server.
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			d.logf("http: %v", err)
		}
	}()
	d.logf("ops endpoint on http://%s", ln.Addr())
	return func() {
		ioutil.CloseQuiet(srv)
		<-done
	}, nil
}

// Monitor exposes the underlying monitor for in-process callers (the
// final report, tests). API reads never use it — they read published
// snapshots.
func (d *Daemon) Monitor() *stream.Monitor { return d.monitor }

// Generation returns the config generation: 0 at start, +1 per applied
// reload.
func (d *Daemon) Generation() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

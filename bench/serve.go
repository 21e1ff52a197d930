package main

// The serve workloads: an in-process serve.Daemon on a serve.FakeClock,
// fed by one file-backed wire target per AS. The benchmark owns the
// clock, so it decides when each record is released; the daemon's own
// telemetry is read through the registry passed in serve.Options.Metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// splitByAS splits the campaign archive into one wire archive per AS:
// route names the directory a record goes to ("" drops it), and create
// opens dir/ASn.wire. Every AS gets an archive in every directory, even
// an empty one.
func splitByAS(c *campaign, dirs []string, route func(time.Time) string, create func(path string) (io.WriteCloser, error)) (err error) {
	type out struct {
		w  io.WriteCloser
		ww *wire.Writer
	}
	archives := map[string]out{}
	defer func() {
		for _, o := range archives {
			if ferr := o.ww.Flush(); ferr != nil && err == nil {
				err = ferr
			}
			ioutil.CloseJoin(o.w, &err)
		}
	}()
	for _, dir := range dirs {
		for _, asn := range c.ASNs {
			path := filepath.Join(dir, runName(asn))
			w, err := create(path)
			if err != nil {
				return err
			}
			archives[path] = out{w, wire.NewWriter(w, wire.StreamResults)}
		}
	}
	return scanArchive(c.path(archiveFile), func(asn bgp.ASN, r *traceroute.Result) error {
		dir := route(r.Timestamp)
		if dir == "" {
			return nil
		}
		o, ok := archives[filepath.Join(dir, runName(asn))]
		if !ok {
			return fmt.Errorf("record for %v, which is not in the campaign manifest", asn)
		}
		return o.ww.WriteResult(asn, r)
	})
}

// createFile creates path and any missing parent directories.
func createFile(path string) (io.WriteCloser, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// discard is a create for splitByAS that keeps nothing.
func discard(string) (io.WriteCloser, error) { return nopCloser{io.Discard}, nil }

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// writeConfig writes a daemon config with one target per AS archive in
// targets.
func writeConfig(path, statePath, targets string, c *campaign) error {
	cfg := serve.Config{
		StatePath:      statePath,
		Window:         serve.Duration(c.Params.window()),
		BinWidth:       serve.Duration(binWidth),
		MinTraceroutes: minTraceroutes,
		MaxLateness:    serve.Duration(maxLateness),
	}
	for _, asn := range c.ASNs {
		cfg.Targets = append(cfg.Targets, serve.Target{
			Name: asn.String(), ASN: asn, Source: filepath.Join(targets, runName(asn)),
		})
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// feed is the benchmark's side of one daemon run: the clock it drives,
// the wall time of every clock step (so each record's release instant
// is known), and what the sources handed out.
type feed struct {
	clock *serve.FakeClock
	// origin is the clock at step 0; step k moves it to origin + k*step.
	origin time.Time
	step   time.Duration
	// stepWall[k] is the wall time, in Unix nanoseconds, at which step k
	// began; sources read it to time each record from its release.
	stepWall []atomic.Int64

	targets  int
	handed   atomic.Int64
	failures atomic.Int64
	idleNs   atomic.Int64 // time sources spent waiting for the clock
	finished atomic.Int64 // sources that reached EOF
	allDone  chan struct{}
	// progress receives a signal, without ever blocking a source, each
	// time another `every` records have been handed out; every == 0
	// sends none.
	every    int64
	progress chan struct{}

	mu      sync.Mutex
	sources []*fileSource
}

func newFeed(clock *serve.FakeClock, step time.Duration, steps, targets int) *feed {
	f := &feed{
		clock: clock, origin: clock.Now(), step: step,
		stepWall: make([]atomic.Int64, steps+1),
		targets:  targets, allDone: make(chan struct{}),
	}
	f.stepWall[0].Store(time.Now().UnixNano())
	return f
}

// advance moves the clock by one step, stamping the step's wall time
// first so a woken source always finds it.
func (f *feed) advance(k int) {
	f.stepWall[k].Store(time.Now().UnixNano())
	f.clock.Advance(f.step)
}

// releasedAt returns the wall time at which the step releasing ts began.
func (f *feed) releasedAt(ts time.Time) time.Time {
	k := 0
	if d := ts.Sub(f.origin); d > 0 {
		k = min(int((d+f.step-1)/f.step), len(f.stepWall)-1)
	}
	return time.Unix(0, f.stepWall[k].Load())
}

func (f *feed) open(t serve.Target) (serve.Source, error) {
	file, err := os.Open(t.Source)
	if err != nil {
		f.failures.Add(1)
		return nil, err
	}
	s := &fileSource{feed: f, file: file, sc: wire.NewScanner(file), asn: t.ASN}
	f.mu.Lock()
	f.sources = append(f.sources, s)
	f.mu.Unlock()
	return s, nil
}

// handedByAS returns how many records each source handed out, keyed by
// the AS of its target; call it once the daemon's runners have exited.
func (f *feed) handedByAS() map[bgp.ASN]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[bgp.ASN]int{}
	for _, s := range f.sources {
		out[s.asn] += s.handed
	}
	return out
}

// lags returns every record's release-to-hand-out time in milliseconds;
// call it once the daemon's runners have exited.
func (f *feed) lags() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []float64
	for _, s := range f.sources {
		out = append(out, s.lagMs...)
	}
	return out
}

// fileSource serves one target's wire archive, releasing each record
// only once the fake clock reaches its timestamp. Next is called by the
// target's runner goroutine alone; the daemon delivers each result
// before asking for the next, so the scanner's reused storage is safe.
type fileSource struct {
	feed    *feed
	file    *os.File
	sc      *wire.Scanner
	pending bool // the scanner holds a record not yet handed out
	asn     bgp.ASN
	handed  int
	lagMs   []float64
}

func (s *fileSource) Next(ctx context.Context) (bgp.ASN, *traceroute.Result, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if !s.pending {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				s.feed.failures.Add(1)
				return 0, nil, err
			}
			if s.feed.finished.Add(1) == int64(s.feed.targets) {
				close(s.feed.allDone)
			}
			return 0, nil, io.EOF
		}
		s.pending = true
	}
	r := s.sc.Result()
	if r.Timestamp.After(s.feed.clock.Now()) {
		wait := time.Now()
		select {
		case <-s.feed.clock.AfterTime(r.Timestamp):
		case <-ctx.Done():
			s.feed.idleNs.Add(int64(time.Since(wait)))
			return 0, nil, ctx.Err()
		}
		s.feed.idleNs.Add(int64(time.Since(wait)))
	}
	s.pending = false
	s.handed++
	s.lagMs = append(s.lagMs, float64(time.Since(s.feed.releasedAt(r.Timestamp)))/1e6)
	if n := s.feed.handed.Add(1); s.feed.every > 0 && n%s.feed.every == 0 {
		select {
		case s.feed.progress <- struct{}{}:
		default:
		}
	}
	return s.sc.ASN(), r, nil
}

func (s *fileSource) Close() error { return s.file.Close() }

// quietLog drops the daemon's operational log lines; failures surface
// through the telemetry counters and the sources instead.
func quietLog(string, ...any) {}

// newDaemon builds a daemon over cfg and reports how long serve.New took.
func newDaemon(cfg string, clock serve.Clock, open serve.SourceOpener, reg *telemetry.Registry) (*serve.Daemon, time.Duration, error) {
	start := time.Now()
	d, err := serve.New(cfg, serve.Options{Clock: clock, Open: open, Metrics: reg, Logf: quietLog})
	return d, time.Since(start), err
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// verdictBits is a verdict reduced to the bits the equivalence gate
// compares: floats by their IEEE-754 bits, so NaN gaps and signed zeros
// count.
type verdictBits struct {
	probes         int
	class          core.Class
	daily          bool
	amp, freq, p2p uint64
	bin            int
	start          int64
	step           time.Duration
	values         []uint64
}

func bitsOf(probes int, sig *timeseries.Series, cls core.Classification) *verdictBits {
	b := &verdictBits{
		probes: probes, class: cls.Class, daily: cls.IsDaily,
		amp: math.Float64bits(cls.DailyAmplitude), freq: math.Float64bits(cls.Peak.Freq),
		p2p: math.Float64bits(cls.Peak.P2P), bin: cls.Peak.Bin,
		start: sig.Start.UnixNano(), step: sig.Step,
	}
	for _, v := range sig.Values {
		b.values = append(b.values, math.Float64bits(v))
	}
	return b
}

func (b *verdictBits) equal(o *verdictBits) bool {
	if b == nil || o == nil {
		return b == o
	}
	return b.probes == o.probes && b.class == o.class && b.daily == o.daily &&
		b.amp == o.amp && b.freq == o.freq && b.p2p == o.p2p && b.bin == o.bin &&
		b.start == o.start && b.step == o.step && slices.Equal(b.values, o.values)
}

// snapshotBits fingerprints a published snapshot; a skipped AS maps to
// nil.
func snapshotBits(s *serve.Snapshot) map[bgp.ASN]*verdictBits {
	out := map[bgp.ASN]*verdictBits{}
	for _, v := range s.Verdicts {
		out[v.ASN] = bitsOf(v.Probes, v.Signal, v.Classification)
	}
	for _, sk := range s.Skipped {
		out[sk.ASN] = nil
	}
	return out
}

// sameBits reports the first AS whose verdicts differ.
func sameBits(got, want map[bgp.ASN]*verdictBits) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ASes against %d", len(got), len(want))
	}
	for asn, w := range want {
		g, ok := got[asn]
		if !ok || !g.equal(w) {
			return fmt.Errorf("%v: verdict differs (classified %v against %v)", asn, g != nil, w != nil)
		}
	}
	return nil
}

// checkDaemon compares the daemon's published verdicts with a batch
// core.RunSurvey replay of exactly what it ingested, one AS at a time:
// ledger returns each AS's records. It returns the snapshot's
// fingerprint for comparing later runs against.
func checkDaemon(d *serve.Daemon, asns []bgp.ASN, ledger func(bgp.ASN) ([]core.AttributedResult, error)) (map[bgp.ASN]*verdictBits, error) {
	snap := d.ReadSnapshot()
	start, nBins, ok := d.Monitor().WindowBounds()
	if !ok {
		return nil, errors.New("daemon has no window after the run")
	}
	end := start.Add(time.Duration(nBins) * snap.BinWidth)
	want := map[bgp.ASN]*verdictBits{}
	for _, asn := range asns {
		recs, err := ledger(asn)
		if err != nil {
			return nil, err
		}
		batch, _, err := core.RunSurvey("replay", recs, core.SurveyOptions{
			Start: start, End: end, BinWidth: snap.BinWidth, MinTraceroutes: minTraceroutes,
			Workers: 1, Shards: 1,
		})
		if err != nil {
			return nil, err
		}
		want[asn] = nil
		if b := batch.Results[asn]; b != nil {
			want[asn] = bitsOf(b.Probes, b.Signal, b.Classification)
		}
	}
	got := snapshotBits(snap)
	if err := sameBits(got, want); err != nil {
		return nil, fmt.Errorf("daemon against batch replay: %w", err)
	}
	return got, nil
}

// archivePrefix reads the first n[i] records of each archive in turn; a
// negative count reads the whole archive.
func archivePrefix(paths []string, n []int) ([]core.AttributedResult, error) {
	var out []core.AttributedResult
	for i, path := range paths {
		left := n[i]
		err := scanArchive(path, func(asn bgp.ASN, r *traceroute.Result) error {
			if left == 0 {
				return io.EOF
			}
			left--
			out = append(out, core.AttributedResult{ASN: asn, Result: r.Clone()})
			return nil
		})
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
	}
	return out, nil
}

// serveAPI serves the daemon's handler on a loopback port until stop.
func serveAPI(d *serve.Daemon) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return ln.Addr().String(), func() {
		ioutil.CloseQuiet(srv)
		<-done
	}, nil
}

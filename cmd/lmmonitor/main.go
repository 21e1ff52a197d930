// Command lmmonitor runs the streaming (online) variant of the pipeline:
// it consumes traceroute results from a file or stdin — newline-delimited
// Atlas JSON or the binary wire format, detected automatically — maintains
// a sliding window per AS over the sharded incremental delay engine, and
// prints a live classification table at a configurable cadence of stream
// time — the operational mode of a continuously-running last-mile monitor.
// Wire archives carry their AS attribution in-band; JSON input is
// attributed through the optional RIB.
//
// lmmonitor is a flag front end over serve.Daemon, the core of lmserved,
// with one target: its input stream. The daemon resumes from -state,
// checkpoints to it, and serves -http. The run ends at the end of the
// input, or on SIGINT or SIGTERM, which drain the daemon as they do
// lmserved; lmmonitor then prints a final classification report and its
// ingestion statistics. A second signal ends the process at once, as if
// lmmonitor caught none. A decode error exits 1 without that report,
// after the drain has checkpointed everything decoded before it.
//
// With -http the monitor serves the daemon's ops endpoint: /metrics
// (Prometheus text), /metrics.json, /debug/pprof, and the read API
// (/api/verdicts, /api/series/{asn}, /api/health). With -metrics a final
// Prometheus-text snapshot is written at exit.
//
// Usage:
//
//	atlasgen -isp A -days 8 | lmmonitor -every 48h
//	lmmonitor -in traces.jsonl -rib rib.txt -window 120h -http :9090
//
// Engine lock stripes and classification fan-out follow GOMAXPROCS; the
// output is identical at any setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

func main() {
	var (
		in       = flag.String("in", "-", "traceroute JSONL input (- for stdin)")
		ribIn    = flag.String("rib", "", "optional RIB file for probe->AS mapping")
		window   = flag.Duration("window", 15*24*time.Hour, "sliding analysis window")
		every    = flag.Duration("every", 24*time.Hour, "stream-time interval between classification reports")
		sortIn   = flag.Bool("sort", true, "sort input by timestamp before feeding the monitor (file dumps are grouped by measurement, not time; disable for genuinely ordered streams)")
		httpAddr = flag.String("http", "", "ops endpoint address (e.g. :9090) serving /metrics, /metrics.json, /debug/pprof and the read API: /api/verdicts, /api/series/{asn}, /api/health")
		metrics  = flag.String("metrics", "", "write a Prometheus-text metrics snapshot to this file at exit (- for stdout)")
		state    = flag.String("state", "", "engine checkpoint file: resume from it at startup if present; checkpoint to it when a maintenance tick (every half bin of wall time) finds the stream in a new bin, and write a full snapshot at exit (atomic rename, zero data loss on SIGTERM)")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmmonitor:", err)
			os.Exit(1)
		}
		defer ioutil.CloseQuiet(f)
		r = f
	}
	var rib *lastmile.RIB
	if *ribIn != "" {
		parsed, err := loadRIB(*ribIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lmmonitor:", err)
			os.Exit(1)
		}
		rib = parsed
	}

	// The first SIGINT or SIGTERM drains; the next takes the default
	// action, so a drain held up by a stdout nobody reads can still be
	// ended. A base replaces the state file by rename and restore drops a
	// torn segment, so that leaves the last complete checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	context.AfterFunc(ctx, stopSignals)

	reg := telemetry.Default()
	cfg := config{
		rib:      rib,
		window:   *window,
		every:    *every,
		sortIn:   *sortIn,
		metrics:  reg,
		state:    *state,
		httpAddr: *httpAddr,
	}
	err := run(ctx, cfg, r, os.Stdout, os.Stderr)
	if *metrics != "" {
		if derr := reg.DumpFile(*metrics); err == nil {
			err = derr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmmonitor:", err)
		os.Exit(1)
	}
}

// loadRIB parses a RIB file for probe->AS attribution.
func loadRIB(path string) (*lastmile.RIB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	parsed, err := lastmile.ParseRIB(f)
	ioutil.CloseQuiet(f)
	if err != nil {
		return nil, err
	}
	return parsed, nil
}

// config carries run's knobs; main fills it from flags, tests directly.
type config struct {
	rib           *lastmile.RIB
	window, every time.Duration
	sortIn        bool
	metrics       *telemetry.Registry
	// state is the checkpoint file path; empty disables checkpointing.
	state string
	// httpAddr is the ops endpoint address; empty serves none.
	httpAddr string
}

// run monitors the results read from r on a one-target daemon, prints
// the scheduled reports to out as the stream passes each -every
// boundary, and the final report once the daemon has drained. The
// scheduled reports reach out through a printer, so an out nobody reads
// holds up neither ingest nor the drain's checkpoint. Daemon log lines
// go to errw.
func run(ctx context.Context, cfg config, r io.Reader, out, errw io.Writer) error {
	if cfg.every <= 0 {
		return fmt.Errorf("-every must be positive, got %v", cfg.every)
	}
	// The run ends when the daemon closes the source (end of input or a
	// decode error), or when ctx is cancelled.
	runCtx, endRun := context.WithCancel(ctx)
	defer endRun()
	var (
		d       *serve.Daemon
		src     *source
		reports *printer
	)
	d, err := serve.NewFromConfig(serve.Config{
		HTTPAddr:  cfg.httpAddr,
		StatePath: cfg.state,
		Window:    serve.Duration(cfg.window),
		Targets:   []serve.Target{{Name: "input"}},
	}, serve.Options{
		Open: func(serve.Target) (serve.Source, error) {
			src = newSource(r, cfg, d.Monitor(), reports, endRun)
			return src, nil
		},
		Metrics: cfg.metrics,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(errw, "lmmonitor: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	stopHTTP, err := d.ListenHTTP()
	if err != nil {
		return err
	}
	reports = newPrinter(out)
	runErr := d.Run(runCtx, nil)
	stopHTTP()

	// Run has joined the target runner, so src is set and nothing is
	// queued on reports any more. The queued reports go out before the
	// final one, and only this goroutine writes to out from here on.
	if err := reports.close(); err != nil {
		return err
	}
	header := "end of stream"
	switch {
	case ctx.Err() != nil:
		header = "interrupted"
	case src.err != nil:
		return src.err
	}
	s := d.ReadSnapshot()
	if err := writeReport(out, header+"; final state:", s.Stats, s.Verdicts, s.Skipped); err != nil {
		return err
	}
	return runErr
}

// writeReport renders one classification report: a header line, the
// ingestion counters and live window gauges, so operators can see what
// the window holds in memory, then the verdict table.
func writeReport(w io.Writer, header string, st stream.Stats, verdicts []*stream.Verdict, skipped []stream.SkippedAS) error {
	fmt.Fprintf(w, "\n%s\n", header)
	fmt.Fprintf(w, "ingested %d, dropped %d (too late), window: %d AS(es), %d probe(s), %d bin(s), %d sample(s), %d bin(s) evicted\n",
		st.Ingested, st.Dropped, st.ASes, st.Probes, st.Bins, st.Samples, st.EvictedBins)
	if len(verdicts) == 0 && len(skipped) == 0 {
		fmt.Fprintln(w, "(no classifiable AS yet — windows warming up)")
		return nil
	}
	return serve.WriteVerdictTable(w, verdicts, skipped)
}

// arrival is one scanned result with its in-band AS attribution (0 for
// JSON input), owned by the receiver until processed.
type arrival struct {
	asn lastmile.ASN
	res *lastmile.Result
}

// source is the daemon's target over lmmonitor's input. A scanner
// goroutine reads the input into results, so a read blocked on an idle
// stdin never blocks the drain: Next selects on the drain's context
// instead. Next also queues the scheduled reports on a printer.
type source struct {
	results <-chan arrival
	// scanErr is the scanner's error, set before results is closed.
	scanErr error
	// stop is closed by Close and stops the scanner at its next send.
	stop chan struct{}
	// endRun ends the daemon's run once the daemon closes the source.
	endRun context.CancelFunc
	// pool recycles the results of the unsorted path: the scanner reuses
	// its Result between Scans, so each arrival carries its own copy.
	pool sync.Pool

	rib     *lastmile.RIB
	monitor *stream.Monitor
	out     io.Writer
	every   time.Duration

	// last is the result the previous Next handed out; nextReport is the
	// stream time at which the next scheduled report is due.
	last       *lastmile.Result
	nextReport time.Time
	// err is the error Next failed the target with, if any.
	err error
}

// newSource starts the scanner over r and returns the source reading
// from it.
func newSource(r io.Reader, cfg config, m *stream.Monitor, out io.Writer, endRun context.CancelFunc) *source {
	results := make(chan arrival)
	s := &source{
		results: results,
		stop:    make(chan struct{}),
		endRun:  endRun,
		pool:    sync.Pool{New: func() any { return new(lastmile.Result) }},
		rib:     cfg.rib,
		monitor: m,
		out:     out,
		every:   cfg.every,
	}
	go s.scan(r, cfg.sortIn, results)
	return s
}

// scan feeds results until the input ends or Close stops it, then closes
// results with any scan error left in scanErr. The sorting path reads
// the whole input before its first send, so it decodes through
// ScanResults, on every core for both encodings (traceroute.ScanAll,
// wire.ScanAll), and clones, since every result is live until the sort. The streaming path hands out each result as
// it arrives, through the per-record scanner, and copies into pooled
// results (one CopyFrom per result, no steady-state allocation). A
// scanner blocked in a read no close can interrupt exits when that read
// returns.
func (s *source) scan(r io.Reader, sortIn bool, results chan<- arrival) {
	defer close(results)
	send := func(a arrival) bool {
		select {
		case results <- a:
			return true
		case <-s.stop:
			return false
		}
	}
	if sortIn {
		var buffered []arrival
		s.scanErr = lastmile.ScanResults(r, func(res *lastmile.Result, asn lastmile.ASN) error {
			buffered = append(buffered, arrival{asn, res.Clone()})
			return nil
		})
		if s.scanErr != nil {
			return
		}
		sort.SliceStable(buffered, func(i, j int) bool {
			return buffered[i].res.Timestamp.Before(buffered[j].res.Timestamp)
		})
		for _, a := range buffered {
			if !send(a) {
				return
			}
		}
		return
	}
	sc := lastmile.NewResultScanner(r)
	for sc.Scan() {
		res := s.pool.Get().(*lastmile.Result)
		res.CopyFrom(sc.Result())
		if !send(arrival{sc.ASN(), res}) {
			return
		}
	}
	s.scanErr = sc.Err()
}

// Next hands out the next input result, attributed through the RIB when
// the input carries no AS. The daemon delivers each result to the
// monitor before it calls Next again, so Next first prints the report
// the previous result made due — from exactly the results handed out so
// far — and recycles it.
func (s *source) Next(ctx context.Context) (lastmile.ASN, *lastmile.Result, error) {
	if s.last != nil {
		err := s.report(s.last.Timestamp)
		s.pool.Put(s.last)
		s.last = nil
		if err != nil {
			s.err = err
			return 0, nil, err
		}
	}
	select {
	case a, ok := <-s.results:
		if !ok {
			if s.scanErr != nil {
				s.err = s.scanErr
				return 0, nil, s.err
			}
			return 0, nil, io.EOF
		}
		if a.asn == 0 && s.rib != nil && a.res.FromAddr.IsValid() {
			if origin, err := s.rib.OriginOf(a.res.FromAddr); err == nil {
				a.asn = origin
			}
		}
		s.last = a.res
		return a.asn, a.res, nil
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
}

// report prints a scheduled report when a result at stream time ts
// reaches the next -every boundary. The first result sets the boundary
// one interval ahead of itself; each report sets it one interval past
// the result that triggered it.
func (s *source) report(ts time.Time) error {
	if s.nextReport.IsZero() {
		s.nextReport = ts.Add(s.every)
		return nil
	}
	if ts.Before(s.nextReport) {
		return nil
	}
	s.nextReport = ts.Add(s.every)
	st := s.monitor.Stats()
	verdicts, skipped := s.monitor.ClassifyAll()
	return writeReport(s.out, "== "+ts.UTC().Format(time.RFC3339)+" ==", st, verdicts, skipped)
}

// Close stops the scanner and ends the daemon's run: the daemon closes
// the source once its one target has finished or failed.
func (s *source) Close() error {
	close(s.stop)
	s.endRun()
	return nil
}

// printer is an io.Writer that never waits for the writer behind it: a
// Write queues its bytes, and a goroutine of the printer's own copies
// them to out in order. The daemon's target runner prints the scheduled
// reports through it, so a stdout nobody reads stalls neither ingest
// nor the drain and its checkpoint. The queue is unbounded, but reports
// come one per -every of stream time.
type printer struct {
	mu      sync.Mutex
	pending []byte
	// failed is the first error out returned; nothing is queued after it.
	failed error
	// wake is signalled when pending grows and closed by close.
	wake chan struct{}
	done chan struct{}
}

// newPrinter starts a printer writing to out.
func newPrinter(out io.Writer) *printer {
	p := &printer{wake: make(chan struct{}, 1), done: make(chan struct{})}
	go p.copy(out)
	return p
}

// Write queues b, or returns the error out has failed with.
func (p *printer) Write(b []byte) (int, error) {
	p.mu.Lock()
	if err := p.failed; err != nil {
		p.mu.Unlock()
		return 0, err
	}
	p.pending = append(p.pending, b...)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return len(b), nil
}

// copy writes whatever is pending to out each time Write wakes it, and
// once more when close closes wake.
func (p *printer) copy(out io.Writer) {
	defer close(p.done)
	for open := true; open; {
		_, open = <-p.wake
		p.mu.Lock()
		b := p.pending
		p.pending = nil
		p.mu.Unlock()
		if len(b) == 0 {
			continue
		}
		if _, err := out.Write(b); err != nil {
			p.mu.Lock()
			p.failed = err
			p.mu.Unlock()
			return
		}
	}
}

// close waits until everything queued is written and returns the error
// out failed with, if any. Nothing may be written after close.
func (p *printer) close() error {
	close(p.wake)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

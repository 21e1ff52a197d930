package main

// The traced run (--trace 1): per-layer costs, timed from outside by
// wrapping calls to each layer's public functions in two in-process
// replicas of the products:
//
//   - the survey replica is lmsurvey -probes, serially: parse, attribute
//     and clone every Atlas JSONL record, estimate and observe it, then
//     Signal and Classify each AS and render the report;
//   - the serve replica is the serve-live daemon's work: restore the
//     checkpoint, feed a stream.Monitor the live records in order with
//     ClassifyAll at every bin crossing, snapshot it, restart a
//     serve.Daemon from the snapshot and read its API.
//
// The traced run does not depend on the workload: every workload's
// traced run replays both replicas over its seed's campaign, so each
// reports every layer. Phases, ASes and whole-call layers get spans;
// per-record calls are timed with the monotonic clock and aggregated per
// layer, with every 64th call's duration kept for percentiles, as the
// engine samples its own ingest latency.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/dsp"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// span is one timed interval. Layer names the repository module its
// self time is charged to; spans without one are the benchmark's own
// glue.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // -1 for a replica's root
	TraceID int    `json:"trace_id"`
}

// calls aggregates one layer function's per-record calls inside a span.
type calls struct {
	Layer   string    `json:"layer"`
	Op      string    `json:"op"`
	Parent  int       `json:"parent"`
	TraceID int       `json:"trace_id"`
	Count   int64     `json:"calls"`
	Ns      int64     `json:"ns"`
	Bytes   int64     `json:"bytes,omitempty"`
	Sampled []float64 `json:"sampled_ns"` // every 64th call
}

// tracer records spans and call aggregates in memory. A nil tracer
// records nothing and reads no clock, which is the untraced run.
type tracer struct {
	epoch   time.Time
	traceID int
	spans   []span
	calls   []*calls
}

func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Layer: layer, Parent: parent, TraceID: t.traceID,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// op returns the aggregate for one layer function called inside span
// parent.
func (t *tracer) op(layer, name string, parent int) *calls {
	if t == nil {
		return nil
	}
	c := &calls{Layer: layer, Op: name, Parent: parent, TraceID: t.traceID}
	t.calls = append(t.calls, c)
	return c
}

func (c *calls) start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop ends a call begun at from that handled n bytes.
func (c *calls) stop(from time.Time, n int64) {
	if c == nil {
		return
	}
	d := int64(time.Since(from))
	c.Count++
	c.Ns += d
	c.Bytes += n
	if c.Count&63 == 0 {
		c.Sampled = append(c.Sampled, float64(d))
	}
}

// find returns the call aggregate named op, or an empty one.
func (t *tracer) find(op string) *calls {
	for _, c := range t.calls {
		if c.Op == op {
			return c
		}
	}
	return &calls{}
}

// spanMs sums the durations of the spans named name, in milliseconds.
func (t *tracer) spanMs(name string) (total float64, each []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			each = append(each, float64(s.End-s.Start)/1e6)
			total += each[len(each)-1]
		}
	}
	return total, each
}

// layerRow is one row of a replica's layer table.
type layerRow struct {
	Layer        string
	SelfMs       float64
	Share        float64
	Calls        int64
	P50Ns, P99Ns float64
}

// layers charges every span's self time (its duration minus its child
// spans and the calls made inside it) and every call aggregate to its
// layer. Glue is the self time of spans without a layer. The root span
// of the trace is the replica's wall time.
func (t *tracer) layers() (rows []layerRow, coverage float64) {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, c := range t.calls {
		child[c.Parent] += c.Ns
	}
	self := map[string]int64{}
	callCount := map[string]int64{}
	sampled := map[string][]float64{}
	var wall int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
		self[s.Layer] += s.End - s.Start - child[s.ID]
	}
	for _, c := range t.calls {
		self[c.Layer] += c.Ns
		callCount[c.Layer] += c.Count
		sampled[c.Layer] = append(sampled[c.Layer], c.Sampled...)
	}
	names := make([]string, 0, len(self))
	var covered int64
	for layer, ns := range self {
		names = append(names, layer)
		if layer != "" {
			covered += ns
		}
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, layer := range names {
		name := layer
		if layer == "" {
			name = "(glue)"
		}
		rows = append(rows, layerRow{
			Layer: name, SelfMs: float64(self[layer]) / 1e6, Share: float64(self[layer]) / float64(wall),
			Calls: callCount[layer], P50Ns: percentileOrZero(sampled[layer], 50), P99Ns: percentileOrZero(sampled[layer], 99),
		})
	}
	return rows, float64(covered) / float64(wall)
}

func percentileOrZero(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}

// wall returns the duration of a replica's root span.
func (t *tracer) wall() time.Duration {
	var wall int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	return time.Duration(wall)
}

// surveyReplica is lmsurvey -probes, serial and in-process.
type surveyReplica struct {
	rows    []surveyRow
	results []core.AttributedResult
	signals []*timeseries.Series // of the classified ASes
	usable  int
}

func runSurveyReplica(tr *tracer, jsonl, meta string) (*surveyReplica, error) {
	out := &surveyReplica{}
	root := tr.begin("survey", "", -1)
	defer tr.end(root)

	sp := tr.begin("registry", "atlas", root)
	mf, err := os.Open(meta)
	if err != nil {
		return nil, err
	}
	registry, err := atlas.ParseRegistry(mf)
	ioutil.CloseQuiet(mf)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	scanSpan := tr.begin("scan", "", root)
	parse := tr.op("traceroute", "parse", scanSpan)
	lookup := tr.op("atlas", "lookup", scanSpan)
	clone := tr.op("traceroute", "clone", scanSpan)
	f, err := os.Open(jsonl)
	if err != nil {
		return nil, err
	}
	defer ioutil.CloseQuiet(f)
	sc := traceroute.NewScanner(f)
	probeASN := map[int]bgp.ASN{}
	asProbes := map[bgp.ASN]map[int]bool{}
	var tMin, tMax time.Time
	for {
		t0 := parse.start()
		ok := sc.Scan()
		parse.stop(t0, 0)
		if !ok {
			break
		}
		res := sc.Result()
		t0 = lookup.start()
		info, known := registry.ByID(res.ProbeID)
		lookup.stop(t0, 0)
		if known && info.IsAnchor {
			continue
		}
		asn, seen := probeASN[res.ProbeID]
		if !seen && known {
			asn = info.ASNv4
			probeASN[res.ProbeID] = asn
		}
		if asProbes[asn] == nil {
			asProbes[asn] = map[int]bool{}
		}
		asProbes[asn][res.ProbeID] = true
		t0 = clone.start()
		cl := res.Clone()
		clone.stop(t0, cloneBytes(cl))
		out.results = append(out.results, core.AttributedResult{ASN: asn, Result: cl})
		if tMin.IsZero() || cl.Timestamp.Before(tMin) {
			tMin = cl.Timestamp
		}
		if cl.Timestamp.After(tMax) {
			tMax = cl.Timestamp
		}
	}
	tr.end(scanSpan)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.results) == 0 {
		return nil, fmt.Errorf("%s holds no records", jsonl)
	}

	obsSpan := tr.begin("observe", "", root)
	estimate := tr.op("lastmile", "estimate", obsSpan)
	observe := tr.op("engine", "observe", obsSpan)
	eng := engine.New(engine.Options{BinWidth: binWidth, MinTraceroutes: minTraceroutes, Shards: 1})
	for _, ar := range out.results {
		t0 := estimate.start()
		samples, _, ok := lastmile.Estimate(ar.Result)
		estimate.stop(t0, 0)
		if !ok {
			continue
		}
		out.usable++
		t0 = observe.start()
		eng.Observe(ar.ASN, ar.Result.ProbeID, ar.Result.Timestamp, samples)
		observe.stop(t0, 0)
	}
	tr.end(obsSpan)

	// Classification, as core.RunSurvey's tail does it: every attributed
	// AS, in ASN order.
	start, end := surveyBounds(tMin, tMax)
	nBins := int(end.Sub(start) / binWidth)
	inEngine := map[bgp.ASN]bool{}
	for _, asn := range eng.ASNs() {
		inEngine[asn] = true
	}
	var universe []bgp.ASN
	for asn := range asProbes {
		universe = append(universe, asn)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	clsSpan := tr.begin("verdicts", "", root)
	var outcomes []asOutcome
	var signals []*timeseries.Series
	for _, asn := range universe {
		o := asOutcome{asn: asn, probes: len(asProbes[asn])}
		asSpan := tr.begin(asn.String(), "", clsSpan)
		var sig *timeseries.Series
		if !inEngine[asn] {
			o.reason = core.ErrNoUsableData
		} else {
			sp := tr.begin("signal", "engine", asSpan)
			s, n, err := eng.Signal(asn, start, nBins)
			tr.end(sp)
			if err != nil {
				o.reason = err
			} else {
				sp = tr.begin("classify", "core", asSpan)
				cls, err := core.Classify(s, core.DefaultClassifierOptions())
				tr.end(sp)
				if err != nil {
					o.reason = fmt.Errorf("unclassifiable: %w", err)
				} else {
					o.probes, o.cls, sig = n, cls, s
					out.signals = append(out.signals, s)
				}
			}
		}
		tr.end(asSpan)
		outcomes = append(outcomes, o)
		signals = append(signals, sig)
	}
	tr.end(clsSpan)

	sp = tr.begin("render", "report", root)
	tb := report.NewTable("AS", "probes", "class", "daily amp (ms)", "peak freq (c/h)", "signal")
	for i, o := range outcomes {
		r := o.row()
		spark := ""
		if signals[i] != nil {
			spark = report.Sparkline(report.Downsample(signals[i].Values, 48), 0)
		}
		tb.AddRowf(r.AS, r.Probes, r.Class, r.Amp, r.Freq, spark)
		out.rows = append(out.rows, r)
	}
	err = tb.Render(io.Discard)
	tr.end(sp)
	return out, err
}

// cloneBytes is the memory a cloned result holds: the struct, its hop
// slice and every reply slice.
func cloneBytes(r *traceroute.Result) int64 {
	n := int64(resultSize) + int64(cap(r.Hops))*int64(hopSize)
	for _, h := range r.Hops {
		n += int64(cap(h.Replies)) * int64(replySize)
	}
	return n
}

var (
	resultSize = reflect.TypeOf(traceroute.Result{}).Size()
	hopSize    = reflect.TypeOf(traceroute.HopResult{}).Size()
	replySize  = reflect.TypeOf(traceroute.Reply{}).Size()
)

// serveReplica is the serve-live daemon's work, in order, on one
// goroutine apart from ClassifyAll's own fan-out.
type serveReplica struct {
	records       int
	snapshotBytes int
	stats         stream.Stats
	daemon        *serve.Daemon
	apiCalls      int
	apiBytes      int64
}

// apiCallsPerEndpoint is how many times the serve replica reads each
// API endpoint.
const apiCallsPerEndpoint = 100

func runServeReplica(tr *tracer, c *campaign, live, state, cfg string) (*serveReplica, error) {
	out := &serveReplica{}
	root := tr.begin("serve", "", -1)
	defer tr.end(root)

	sp := tr.begin("restore", "engine", root)
	cf, err := os.Open(c.path(checkpointFile))
	if err != nil {
		return nil, err
	}
	mon, err := stream.RestoreMonitor(cf, c.Params.streamOptions())
	ioutil.CloseQuiet(cf)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	ingest := tr.begin("ingest", "", root)
	scan := tr.op("wire", "scan", ingest)
	observe := tr.op("stream", "observe", ingest)
	lf, err := os.Open(live)
	if err != nil {
		return nil, err
	}
	defer ioutil.CloseQuiet(lf)
	sc := wire.NewScanner(lf)
	last, _ := mon.NewestBin()
	for {
		t0 := scan.start()
		ok := sc.Scan()
		scan.stop(t0, 0)
		if !ok {
			break
		}
		out.records++
		t0 = observe.start()
		err := mon.Observe(sc.ASN(), sc.Result())
		observe.stop(t0, 0)
		if err != nil {
			return nil, err
		}
		// The daemon refreshes its read snapshot once the watermark
		// enters a new bin; so does the replica.
		if bin, _ := mon.NewestBin(); bin != last {
			last = bin
			sp := tr.begin("classify_all", "stream", ingest)
			mon.ClassifyAll()
			tr.end(sp)
		}
	}
	tr.end(ingest)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out.stats = mon.Stats()

	sp = tr.begin("snapshot", "engine", root)
	var buf bytes.Buffer
	err = mon.Snapshot(&buf)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.snapshotBytes = buf.Len()
	if err := os.WriteFile(state, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}

	sp = tr.begin("daemon", "serve", root)
	out.daemon, err = serve.New(cfg, serve.Options{
		Clock:   serve.NewFakeClock(c.End),
		Open:    func(serve.Target) (serve.Source, error) { return nil, fmt.Errorf("the serve replica runs no targets") },
		Metrics: telemetry.NewRegistry(), Logf: quietLog,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	api := tr.begin("api", "", root)
	h := out.daemon.Handler()
	verdicts := out.daemon.ReadSnapshot().Verdicts
	if len(verdicts) == 0 {
		return nil, fmt.Errorf("the restarted daemon publishes no verdicts")
	}
	for _, ep := range apiEndpoints {
		op := tr.op("serve", "api_"+ep, api)
		for i := 0; i < apiCallsPerEndpoint; i++ {
			path := "/api/" + ep
			if ep == "series" {
				path = fmt.Sprintf("/api/series/%d", uint32(verdicts[i%len(verdicts)].ASN))
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			t0 := op.start()
			h.ServeHTTP(rec, req)
			op.stop(t0, int64(rec.Body.Len()))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("%s: status %d", path, rec.Code)
			}
			out.apiCalls++
			out.apiBytes += int64(rec.Body.Len())
		}
	}
	tr.end(api)
	return out, nil
}

// runTraced is the traced run: both replicas once untraced, as the
// baseline for the tracing overhead, then once traced, with the side
// measurements that need the survey replica's output in between.
func runTraced(ctx context.Context, e *env, c *campaign, name string) (*result, error) {
	if err := c.verify(archiveFile, metaFile, checkpointFile); err != nil {
		return nil, err
	}
	res := &result{workload: name}
	jsonl := filepath.Join(e.work, "trace.jsonl")
	live := filepath.Join(e.work, "trace-live.wire")
	perAS := filepath.Join(e.work, "trace-as")
	state, cfg := filepath.Join(e.work, "trace.state"), filepath.Join(e.work, "trace.json")
	if err := writeFile(jsonl, func(w io.Writer) error { return encodeJSON(c, w) }); err != nil {
		return nil, err
	}
	if err := writeFile(live, func(w io.Writer) error {
		ww := wire.NewWriter(w, wire.StreamResults)
		if err := scanArchive(c.path(archiveFile), func(asn bgp.ASN, r *traceroute.Result) error {
			if r.Timestamp.Before(c.Cut) {
				return nil
			}
			return ww.WriteResult(asn, r)
		}); err != nil {
			return err
		}
		return ww.Flush()
	}); err != nil {
		return nil, err
	}
	if err := splitByAS(c, []string{perAS}, func(time.Time) string { return perAS }, createFile); err != nil {
		return nil, err
	}
	if err := writeConfig(cfg, state, perAS, c); err != nil {
		return nil, err
	}
	ledger := func(asn bgp.ASN) ([]core.AttributedResult, error) {
		return archivePrefix([]string{filepath.Join(perAS, runName(asn))}, []int{-1})
	}

	// The untraced baseline, then the traced passes. Every pass starts
	// from a collected heap, so the runtime's pacing favours no pass.
	meta := c.path(metaFile)
	var untraced time.Duration
	for _, pass := range []func() error{
		func() error { _, err := runSurveyReplica(nil, jsonl, meta); return err },
		func() error { _, err := runServeReplica(nil, c, live, state, cfg); return err },
	} {
		_, took, err := measured(pass)
		if err != nil {
			return nil, err
		}
		untraced += took
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := &tracer{epoch: time.Now(), traceID: 1}
	var sv *surveyReplica
	surveyGC, surveyWall, err := measured(func() (err error) {
		sv, err = runSurveyReplica(st, jsonl, meta)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.attempted = 2
	if err := sameRows(sv.rows, c.Reference); err != nil {
		return res.fail(fmt.Errorf("survey replica against the reference: %w", err)), nil
	}
	// Side measurements on the survey's results, which are released
	// before the serve pass.
	records := float64(len(sv.results))
	welch := welchMicros(sv.signals)
	speedup, contention, err := surveySpeedup(sv.results, sv.usable)
	if err != nil {
		return nil, err
	}
	sv.results = nil

	vt := &tracer{epoch: st.epoch, traceID: 2}
	var srv *serveReplica
	serveGC, serveWall, err := measured(func() (err error) {
		srv, err = runServeReplica(vt, c, live, state, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.attempted += srv.apiCalls
	if _, err := checkDaemon(srv.daemon, c.ASNs, ledger); err != nil {
		return res.fail(fmt.Errorf("serve replica: %w", err)), nil
	}
	traced := surveyWall + serveWall

	if err := writeTrace(e.traceOut, st, vt); err != nil {
		return nil, err
	}

	res.correct = true
	surveyRows, surveyCov := st.layers()
	serveRows, serveCov := vt.layers()
	printLayers(os.Stdout, "survey replica", st.wall(), surveyRows, surveyCov)
	printLayers(os.Stdout, "serve replica", vt.wall(), serveRows, serveCov)

	n := records
	classified := float64(len(sv.signals))
	lookups := st.find("lookup")
	_, classifyAll := vt.spanMs("classify_all")
	signalMs, _ := st.spanMs("signal")
	classifyMs, _ := st.spanMs("classify")
	restoreMs, _ := vt.spanMs("restore")
	snapshotMs, _ := vt.spanMs("snapshot")
	daemonMs, _ := vt.spanMs("daemon")
	renderMs, _ := st.spanMs("render")
	liveInfo, err := os.Stat(live)
	if err != nil {
		return nil, err
	}
	scan := vt.find("scan")
	add := func(name, unit string, v float64) { res.add(perLayer, name, unit, v, nil) }
	add("wire.scan_ns_per_rec", "ns", float64(scan.Ns)/float64(srv.records))
	add("wire.mb_per_s", "MB/s", float64(liveInfo.Size())/1e6/(float64(scan.Ns)/1e9))
	add("traceroute.parse_ns_per_rec", "ns", float64(st.find("parse").Ns)/n)
	clone := st.find("clone")
	add("traceroute.clone_ns_per_rec", "ns", float64(clone.Ns)/n)
	add("traceroute.clone_bytes_per_rec", "B", float64(clone.Bytes)/n)
	add("atlas.lookups", "count", float64(lookups.Count))
	add("atlas.lookup_ns", "ns", float64(lookups.Ns)/float64(max(lookups.Count, 1)))
	add("lastmile.estimate_ns_per_rec", "ns", float64(st.find("estimate").Ns)/n)
	add("lastmile.usable_ratio", "ratio", float64(sv.usable)/n)
	add("engine.observe_ns_per_rec", "ns", float64(st.find("observe").Ns)/float64(max(sv.usable, 1)))
	add("engine.contention_per_kobs", "count/krec", contention)
	add("engine.signal_us_per_as", "us", signalMs*1e3/float64(len(c.ASNs)))
	add("engine.resident_bins", "count", float64(srv.stats.Bins))
	add("engine.resident_samples", "count", float64(srv.stats.Samples))
	add("engine.restore_ms", "ms", restoreMs)
	add("engine.snapshot_ms", "ms", snapshotMs)
	add("engine.snapshot_mb", "MB", float64(srv.snapshotBytes)/(1<<20))
	add("dsp.welch_us_per_as", "us", welch)
	add("core.classify_us_per_as", "us", classifyMs*1e3/max(classified, 1))
	add("core.verdicts", "count", classified)
	add("parallel.speedup", "ratio", speedup)
	add("stream.observe_ns_per_rec", "ns", float64(vt.find("observe").Ns)/float64(srv.records))
	add("stream.classify_all_ms_p50", "ms", percentile(classifyAll, 50))
	add("stream.classify_all_ms_p90", "ms", percentile(classifyAll, 90))
	add("serve.new_ms", "ms", daemonMs)
	for _, ep := range apiEndpoints {
		op := vt.find("api_" + ep)
		add("serve.api_"+ep+"_us", "us", float64(op.Ns)/1e3/float64(max(op.Count, 1)))
	}
	add("serve.api_bytes_per_req", "B", float64(srv.apiBytes)/float64(max(srv.apiCalls, 1)))
	add("report.render_ms", "ms", renderMs)
	krec := (n + float64(srv.records)) / 1e3
	add("runtime.gc_cycles", "count", float64(surveyGC.cycles+serveGC.cycles))
	add("runtime.gc_pause_ms", "ms", float64(surveyGC.pauseNs+serveGC.pauseNs)/1e6)
	add("runtime.alloc_mb_per_krec", "MB/krec", float64(surveyGC.alloc+serveGC.alloc)/(1<<20)/krec)
	add("trace.coverage_survey", "ratio", surveyCov)
	add("trace.coverage_serve", "ratio", serveCov)
	add("trace.overhead_ratio", "ratio", traced.Seconds()/untraced.Seconds())
	if surveyCov < minCoverage || serveCov < minCoverage {
		return res.fail(fmt.Errorf("trace coverage %.3f (survey) / %.3f (serve) is below %.2f", surveyCov, serveCov, minCoverage)), nil
	}
	return res, nil
}

// gcCost is what one pass cost the Go runtime.
type gcCost struct {
	cycles         uint32
	pauseNs, alloc uint64
}

// measured runs one replica pass from a collected heap and returns its
// runtime cost and wall time.
func measured(pass func() error) (gcCost, time.Duration, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := pass()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return gcCost{
		cycles:  after.NumGC - before.NumGC,
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
		alloc:   after.TotalAlloc - before.TotalAlloc,
	}, took, err
}

// minCoverage is the least share of a replica's wall time its layers
// must account for; below it the layer table would hide where time goes.
const minCoverage = 0.9

// welchMicros times dsp.Welch alone on each classified AS's signal, as
// core.Classify prepares it, and returns the mean in microseconds.
func welchMicros(signals []*timeseries.Series) float64 {
	opts := core.DefaultClassifierOptions().Welch
	var total time.Duration
	n := 0
	for _, s := range signals {
		filled, err := dsp.Interpolate(s.Values)
		if err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := dsp.Welch(filled, s.SampleRatePerHour(), opts); err == nil {
			total += time.Since(t0)
			n++
		}
	}
	return float64(total) / 1e3 / float64(max(n, 1))
}

// surveySpeedup runs core.RunSurvey serially and at its defaults (one
// worker and one engine shard per CPU) over the same results, as
// "lmsurvey -workers 1 -shards 1" against plain lmsurvey. It returns
// serial wall time over default wall time, and the parallel run's
// engine lock contention per thousand of its observations.
func surveySpeedup(results []core.AttributedResult, observations int) (speedup, contention float64, err error) {
	tMin, tMax := results[0].Result.Timestamp, results[0].Result.Timestamp
	for _, r := range results {
		if r.Result.Timestamp.Before(tMin) {
			tMin = r.Result.Timestamp
		}
		if r.Result.Timestamp.After(tMax) {
			tMax = r.Result.Timestamp
		}
	}
	start, end := surveyBounds(tMin, tMax)
	timed := func(workers, shards int, reg *telemetry.Registry) (time.Duration, error) {
		t0 := time.Now()
		_, _, err := core.RunSurvey("speedup", results, core.SurveyOptions{
			Start: start, End: end, Workers: workers, Shards: shards, Metrics: reg,
		})
		return time.Since(t0), err
	}
	serial, err := timed(1, 1, nil)
	if err != nil {
		return 0, 0, err
	}
	procs := runtime.GOMAXPROCS(0)
	reg := telemetry.NewRegistry()
	parallel, err := timed(procs, procs, reg)
	if err != nil {
		return 0, 0, err
	}
	return serial.Seconds() / parallel.Seconds(),
		float64(reg.Counter("engine_shard_contention_total").Value()) / (float64(observations) / 1e3), nil
}

// writeTrace writes every span and call aggregate of the traced run.
func writeTrace(path string, traces ...*tracer) error {
	var doc struct {
		Spans []span   `json:"spans"`
		Calls []*calls `json:"calls"`
	}
	for _, t := range traces {
		doc.Spans = append(doc.Spans, t.spans...)
		doc.Calls = append(doc.Calls, t.calls...)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printLayers prints a replica's layer table.
func printLayers(w io.Writer, title string, wall time.Duration, rows []layerRow, coverage float64) {
	fmt.Fprintf(w, "%s: wall %.1f ms, layers cover %.1f%%\n", title, float64(wall)/1e6, coverage*100)
	tb := report.NewTable("layer", "self ms", "share", "calls", "p50 ns/call", "p99 ns/call")
	for _, r := range rows {
		tb.AddRowf(r.Layer, fmt.Sprintf("%.1f", r.SelfMs), fmt.Sprintf("%.1f%%", r.Share*100), r.Calls,
			fmt.Sprintf("%.0f", r.P50Ns), fmt.Sprintf("%.0f", r.P99Ns))
	}
	var sb strings.Builder
	_ = tb.Render(&sb) // a strings.Builder does not fail
	fmt.Fprint(w, sb.String())
}

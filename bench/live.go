package main

// serve-live: the operator's steady state. A daemon resumed from the
// campaign's checkpoint ingests the remaining days, released open-loop
// on a fixed wall schedule, while an open-loop client reads the API.
// The result a reader waits for is an API response, so the workload's
// result latency is the API latency; how stale the verdicts were when
// read (freshness) is a diagnostic.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

const (
	// liveSetups is how many times set-up restarts the daemon from the
	// checkpoint; setup_s is the median.
	liveSetups = 9
	// liveStep is how far the clock moves per step. Steps are
	// spread evenly over the run, so records arrive close to their own
	// timestamps' rhythm rather than in bursts.
	liveStep = 5 * time.Minute
	// apiRate is the open-loop API request rate.
	apiRate = 200
	// apiConns bounds the client's connections.
	apiConns = 2
	// apiDeadline is the latency beyond which a request counts as failed.
	apiDeadline = time.Second
	// drainTimeout bounds the wait for the sources to finish once the
	// last record is released.
	drainTimeout = time.Minute
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runLive measures serve-live. Set-up writes one archive per AS holding
// its records after the cut (the targets) and one holding those before
// it (for the gate), then restarts the daemon from the checkpoint
// liveSetups times.
func runLive(ctx context.Context, e *env, c *campaign, seconds float64) (*result, error) {
	if err := c.verify(archiveFile, checkpointFile); err != nil {
		return nil, err
	}
	res := &result{workload: "serve-live"}
	steps := int(c.End.Sub(c.Cut) / liveStep)
	// released[k] counts the records the clock has released after step k.
	released := make([]int64, steps+1)
	targets, history := filepath.Join(e.work, "live"), filepath.Join(e.work, "history")
	if err := splitByAS(c, []string{targets, history}, func(ts time.Time) string {
		if ts.Before(c.Cut) {
			return history
		}
		released[min(int((ts.Sub(c.Cut)+liveStep-1)/liveStep), steps)]++
		return targets
	}, createFile); err != nil {
		return nil, err
	}
	for k := 1; k <= steps; k++ {
		released[k] += released[k-1]
	}
	state, cfg := filepath.Join(e.work, "live.state"), filepath.Join(e.work, "live.json")
	if err := copyFile(c.path(checkpointFile), state); err != nil {
		return nil, err
	}
	if err := writeConfig(cfg, state, targets, c); err != nil {
		return nil, err
	}

	clock := serve.NewFakeClock(c.Cut)
	var f *feed
	open := func(t serve.Target) (serve.Source, error) { return f.open(t) }
	var (
		d      *serve.Daemon
		reg    *telemetry.Registry
		setups []float64
	)
	for i := 0; i < liveSetups; i++ {
		d, reg = nil, telemetry.NewRegistry()
		runtime.GC() // no restart pays for collecting the one before
		var took time.Duration
		var err error
		if d, took, err = newDaemon(cfg, clock, open, reg); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	if got, want := d.Monitor().Stats().Ingested, int64(c.Records-c.Live); got != want {
		return res.fail(fmt.Errorf("resumed daemon holds %d records, the checkpoint %d", got, want)), nil
	}
	runtime.GC() // the set-up's discarded daemons are not the replay's garbage
	addr, stopAPI, err := serveAPI(d)
	if err != nil {
		return nil, err
	}
	defer stopAPI()

	f = newFeed(clock, liveStep, steps, len(c.ASNs))
	interval := time.Duration(seconds * float64(time.Second) / float64(steps))
	origin := time.Unix(0, f.stepWall[0].Load())
	cpu0 := cpuTime()
	runCtx, stopRun := context.WithCancel(ctx)
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(runCtx, nil) }()
	loadCtx, stopLoad := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// shutdown drains the daemon, then stops the load generators and
	// waits for all of them, on every return path.
	var once sync.Once
	var drainErr error
	shutdown := func() {
		once.Do(func() {
			stopRun()
			drainErr = <-runErr
			stopLoad()
			wg.Wait()
		})
	}
	defer shutdown()
	p := &poller{d: d, f: f, released: released}
	for end := c.Cut.Add(binWidth); end.Before(c.End); end = end.Add(binWidth) {
		p.ends = append(p.ends, end)
	}
	api := newAPIClient(addr)
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.run(loadCtx)
	}()
	go func() {
		defer wg.Done()
		api.run(loadCtx, origin, origin.Add(time.Duration(steps)*interval))
	}()

	var tickLate []float64
	for k := 1; k <= steps; k++ {
		due := origin.Add(time.Duration(k) * interval)
		if err := sleepUntil(ctx, due); err != nil {
			return nil, err
		}
		tickLate = append(tickLate, ms(time.Since(due)))
		f.advance(k)
	}
	select {
	case <-f.allDone:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(drainTimeout):
		return nil, errors.New("sources did not finish after the last release")
	}
	shutdown()
	if drainErr != nil {
		return nil, fmt.Errorf("daemon: %w", drainErr)
	}
	cpu := cpuTime() - cpu0
	rss := peakRSS()
	p.sample() // the drain's final snapshot

	handed := f.handedByAS()
	res.attempted = api.requests + len(c.ASNs)
	res.failed = api.failures + int(f.failures.Load())
	if _, err := checkDaemon(d, c.ASNs, func(asn bgp.ASN) ([]core.AttributedResult, error) {
		return archivePrefix(
			[]string{filepath.Join(history, runName(asn)), filepath.Join(targets, runName(asn))},
			[]int{-1, handed[asn]})
	}); err != nil {
		return res.fail(err), nil
	}
	if got := int(f.handed.Load()); got != c.Live {
		return res.fail(fmt.Errorf("sources handed out %d records, the replay holds %d", got, c.Live)), nil
	}
	if len(p.fresh) != len(p.ends) {
		return res.fail(fmt.Errorf("%d of %d bins reached the published snapshot", len(p.fresh), len(p.ends))), nil
	}

	res.correct = true
	wall := time.Duration(steps) * interval
	lags := f.lags()
	res.add(endToEnd, "setup_s", "s", median(setups), setups)
	all := api.all()
	res.add(endToEnd, "result_latency_ms", "ms", median(all), nil)
	res.add(endToEnd, "cpu_ms_per_krec", "ms/krec", ms(cpu)/(float64(c.Live)/1e3), nil)
	res.add(endToEnd, "peak_rss_mb", "MB", float64(rss)/(1<<20), nil)
	res.add(diagnostic, "api_p99_ms", "ms", percentile(all, 99), nil)
	res.add(diagnostic, "freshness_p50_ms", "ms", percentile(p.fresh, 50), nil)
	res.add(diagnostic, "freshness_p90_ms", "ms", percentile(p.fresh, 90), nil)
	res.add(diagnostic, "ingest_lag_p50_ms", "ms", percentile(lags, 50), nil)
	res.add(diagnostic, "ingest_lag_p99_ms", "ms", percentile(lags, 99), nil)
	for _, ep := range apiEndpoints {
		res.add(diagnostic, "api_"+ep+"_p99_ms", "ms", percentile(api.latency[ep], 99), nil)
	}
	res.add(diagnostic, "api_bytes_per_req", "B", float64(api.bytes)/float64(max(api.requests, 1)), nil)
	res.add(diagnostic, "api_requests", "count", float64(api.requests), nil)
	res.add(diagnostic, "loadgen_api_late_p99_ms", "ms", percentile(api.late, 99), nil)
	res.add(diagnostic, "loadgen_tick_late_p99_ms", "ms", percentile(tickLate, 99), nil)
	res.add(diagnostic, "backlog_max_records", "count", float64(p.backlogMax), nil)
	res.add(diagnostic, "source_idle_ratio", "ratio",
		float64(f.idleNs.Load())/(float64(len(c.ASNs))*float64(wall)), nil)
	refresh := reg.Histogram("serve_snapshot_refresh_seconds", telemetry.DefLatencyBuckets)
	res.add(diagnostic, "refreshes", "count", float64(refresh.Count()), nil)
	res.add(diagnostic, "refresh_ms_mean", "ms", refresh.Sum()/float64(max(refresh.Count(), 1))*1e3, nil)
	res.add(diagnostic, "checkpoints", "count", float64(reg.Counter("serve_checkpoints_total").Value()), nil)
	res.add(diagnostic, "contention_per_kobs", "count/krec",
		float64(reg.Counter("engine_shard_contention_total").Value())/(float64(c.Live)/1e3), nil)
	res.add(diagnostic, "ingest_records_per_s", "rec/s", float64(c.Live)/wall.Seconds(), nil)
	return res, nil
}

// sleepUntil sleeps until t or ctx ends.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// poller watches the published snapshot every millisecond.
type poller struct {
	d *serve.Daemon
	f *feed
	// ends are the bin ends to time, ascending; fresh[i] is how long after
	// the clock reached ends[i] the snapshot first reflected data past it.
	ends  []time.Time
	fresh []float64
	// released[k] counts the records released by step k; backlogMax is
	// the most released records not yet handed to the daemon.
	released   []int64
	backlogMax int64
}

func (p *poller) run(ctx context.Context) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.sample()
		}
	}
}

func (p *poller) sample() {
	now := time.Now()
	newest := p.d.ReadSnapshot().Newest
	for len(p.fresh) < len(p.ends) && !newest.Before(p.ends[len(p.fresh)]) {
		p.fresh = append(p.fresh, ms(now.Sub(p.f.releasedAt(p.ends[len(p.fresh)]))))
	}
	k := min(int(p.f.clock.Now().Sub(p.f.origin)/p.f.step), len(p.released)-1)
	p.backlogMax = max(p.backlogMax, p.released[k]-p.f.handed.Load())
}

var apiEndpoints = []string{"verdicts", "series", "health"}

// apiClient is a single-goroutine open-loop reader: request i is due at
// start + i/apiRate whatever happened to earlier ones, and its latency
// runs from that due time, so a stall counts against every request it
// delays.
type apiClient struct {
	base     string
	client   *http.Client
	asns     []bgp.ASN
	latency  map[string][]float64
	late     []float64
	bytes    int64
	requests int
	failures int
}

func newAPIClient(addr string) *apiClient {
	return &apiClient{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: apiConns, MaxIdleConnsPerHost: apiConns, DisableCompression: true,
		}},
		latency: map[string][]float64{},
	}
}

// pick returns request i's endpoint: of every 20, 9 list verdicts, 9
// fetch one AS's series (rotating over the ASes the last verdicts
// listed) and 2 check health.
func (a *apiClient) pick(i int) (endpoint, path string) {
	switch j := i % 20; {
	case j >= 18 || (j%2 == 1 && len(a.asns) == 0):
		return "health", "/api/health"
	case j%2 == 0:
		return "verdicts", "/api/verdicts"
	default:
		return "series", fmt.Sprintf("/api/series/%d", uint32(a.asns[(i/2)%len(a.asns)]))
	}
}

func (a *apiClient) run(ctx context.Context, start, end time.Time) {
	defer a.client.CloseIdleConnections()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / apiRate)
		if !due.Before(end) || sleepUntil(ctx, due) != nil {
			return
		}
		a.late = append(a.late, ms(time.Since(due)))
		endpoint, path := a.pick(i)
		err := a.get(ctx, endpoint, path)
		took := time.Since(due)
		a.requests++
		if err != nil || took > apiDeadline {
			a.failures++
		}
		a.latency[endpoint] = append(a.latency[endpoint], ms(took))
	}
}

func (a *apiClient) get(ctx context.Context, endpoint, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	a.bytes += int64(len(body))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if endpoint == "verdicts" {
		var doc struct {
			Verdicts []struct {
				ASN bgp.ASN `json:"asn"`
			} `json:"verdicts"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		a.asns = a.asns[:0]
		for _, v := range doc.Verdicts {
			a.asns = append(a.asns, v.ASN)
		}
	}
	return nil
}

// all returns every request's latency.
func (a *apiClient) all() []float64 {
	var out []float64
	for _, ep := range apiEndpoints {
		out = append(out, a.latency[ep]...)
	}
	return out
}

package serve

// HTTP API suite: golden responses for the empty state, shape and
// stability checks for the populated state, status-code contract for
// the error paths, and a concurrent-read-during-ingest hammer that
// -race turns into a data-race detector for the snapshot read model.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// newAPIDaemon builds a daemon over one congested target with a 48h
// window but only 47h of data: the window's leading two bins are gaps,
// so series responses carry both real values and null gap bins while
// the signal still classifies cleanly.
func newAPIDaemon(t *testing.T) (*Daemon, *soakHarness) {
	t.Helper()
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	writeFile(t, cfgPath, `{
  "window": "48h", "bin_width": "30m", "min_traceroutes": 3, "max_lateness": "2h",
  "targets": [{"name": "alpha", "asn": 64500, "source": "src-alpha"}]
}`)
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{
		"src-alpha": diurnalTimeline(64500, 1, soakT0, soakT0.Add(47*time.Hour), 10*time.Minute, 8),
	})
	d, err := New(cfgPath, Options{Clock: h.clock, Open: h.opener, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return d, h
}

// runToQuiescence runs d until its single source hits EOF, then drains.
func runToQuiescence(t *testing.T, d *Daemon, h *soakHarness, want int64) {
	t.Helper()
	ctx, kill := context.WithCancel(context.Background())
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, nil) }()
	h.clock.Advance(48 * time.Hour)
	spinUntil(t, "api ingest", func() bool { return d.Monitor().Stats().Ingested == want })
	kill()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func get(t *testing.T, handler http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Body.Bytes()
}

func TestAPIGoldenEmptyState(t *testing.T) {
	d, _ := newAPIDaemon(t)
	handler := d.Handler()

	// Before any observation the snapshot is empty but fully formed:
	// these bytes are the wire contract for a freshly started daemon.
	rec, body := get(t, handler, "/api/verdicts")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("verdicts: code %d, type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	wantVerdicts := `{
  "generation": 0,
  "window": {
    "bins": 0,
    "bin_width": "30m0s"
  },
  "verdicts": []
}
`
	if string(body) != wantVerdicts {
		t.Fatalf("verdicts golden mismatch:\n got %q\nwant %q", body, wantVerdicts)
	}

	rec, body = get(t, handler, "/api/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("health: code %d", rec.Code)
	}
	wantHealth := `{
  "status": "ok",
  "generation": 0,
  "window": {
    "bins": 0,
    "bin_width": "30m0s"
  },
  "ingested": 0,
  "dropped": 0,
  "ases": 0,
  "targets": []
}
`
	if string(body) != wantHealth {
		t.Fatalf("health golden mismatch:\n got %q\nwant %q", body, wantHealth)
	}
}

func TestAPIStatusCodes(t *testing.T) {
	d, _ := newAPIDaemon(t)
	handler := d.Handler()
	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/api/verdicts", http.StatusOK},
		{http.MethodGet, "/api/health", http.StatusOK},
		{http.MethodGet, "/api/series/not-a-number", http.StatusBadRequest},
		{http.MethodGet, "/api/series/99999", http.StatusNotFound},
		{http.MethodGet, "/api/series/", http.StatusNotFound},
		{http.MethodPost, "/api/verdicts", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/series/64500", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/nope", http.StatusNotFound},
		{http.MethodGet, "/metrics", http.StatusOK},
		{http.MethodGet, "/metrics.json", http.StatusOK},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
}

func TestAPIPopulatedResponses(t *testing.T) {
	d, h := newAPIDaemon(t)
	runToQuiescence(t, d, h, int64(len(h.timelines["src-alpha"])))
	handler := d.Handler()

	// Verdicts: one classified AS with the full classification facts.
	_, body := get(t, handler, "/api/verdicts")
	var verdicts struct {
		Generation int64 `json:"generation"`
		Window     struct {
			Start    *time.Time `json:"start"`
			Bins     int        `json:"bins"`
			BinWidth string     `json:"bin_width"`
		} `json:"window"`
		Verdicts []struct {
			ASN            uint32  `json:"asn"`
			Class          string  `json:"class"`
			DailyAmplitude float64 `json:"daily_amplitude_ms"`
			IsDaily        bool    `json:"is_daily"`
			Probes         int     `json:"probes"`
		} `json:"verdicts"`
	}
	if err := json.Unmarshal(body, &verdicts); err != nil {
		t.Fatalf("verdicts: %v\n%s", err, body)
	}
	if len(verdicts.Verdicts) != 1 {
		t.Fatalf("verdicts = %+v", verdicts.Verdicts)
	}
	v := verdicts.Verdicts[0]
	if v.ASN != 64500 || v.Probes != 3 || !v.IsDaily || v.Class == "None" || v.DailyAmplitude <= 3 {
		t.Fatalf("verdict = %+v, want congested AS64500 with 3 probes", v)
	}
	if verdicts.Window.Bins != 96 || verdicts.Window.BinWidth != "30m0s" || verdicts.Window.Start == nil {
		t.Fatalf("window = %+v", verdicts.Window)
	}

	// Series: 96 window bins; the window ends at the bin boundary past
	// the newest observation (47:00), so it starts at -1h and the two
	// leading bins are null gaps — everything else is finite.
	rec, body := get(t, handler, "/api/series/64500")
	if rec.Code != http.StatusOK {
		t.Fatalf("series: code %d: %s", rec.Code, body)
	}
	var series struct {
		ASN      uint32     `json:"asn"`
		Start    time.Time  `json:"start"`
		StepSecs float64    `json:"step_seconds"`
		Values   []*float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatalf("series: %v", err)
	}
	if series.ASN != 64500 || series.StepSecs != 1800 || len(series.Values) != 96 {
		t.Fatalf("series = asn %d, step %v, %d values", series.ASN, series.StepSecs, len(series.Values))
	}
	for i, val := range series.Values {
		if (i < 2) != (val == nil) {
			t.Fatalf("values[%d] = %v: leading two bins must be null gaps, rest finite", i, val)
		}
	}

	// Health: drained daemon reports its terminal state truthfully.
	_, body = get(t, handler, "/api/health")
	var health struct {
		Status   string `json:"status"`
		Ingested int64  `json:"ingested"`
		Targets  []struct {
			Name, State string
			Ingested    int64
		} `json:"targets"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" || health.Ingested != int64(len(h.timelines["src-alpha"])) {
		t.Fatalf("health = %+v", health)
	}
	if len(health.Targets) != 1 || health.Targets[0].State != "finished" {
		t.Fatalf("targets = %+v", health.Targets)
	}

	// Responses are deterministic: byte-identical across repeated reads
	// of one snapshot.
	for _, path := range []string{"/api/verdicts", "/api/series/64500", "/api/health"} {
		_, a := get(t, handler, path)
		_, b := get(t, handler, path)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not byte-stable across reads", path)
		}
	}
}

// TestAPIConcurrentReadsDuringIngest hammers every route while the
// daemon is actively ingesting and reloading; under -race this pins the
// no-locks-shared-with-ingest property of the snapshot read model.
func TestAPIConcurrentReadsDuringIngest(t *testing.T) {
	d, h := newAPIDaemon(t)
	ctx, kill := context.WithCancel(context.Background())
	hup := make(chan os.Signal, 4)
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, hup) }()

	handler := d.Handler()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/api/verdicts", "/api/series/64500", "/api/health", "/metrics"}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[n%len(paths)], nil))
				if rec.Code >= 500 {
					t.Errorf("%s: %d", paths[n%len(paths)], rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 48; i++ {
		h.clock.Advance(time.Hour)
		hup <- os.Interrupt // reload churn while reads are in flight
		time.Sleep(time.Millisecond)
	}
	want := int64(len(h.timelines["src-alpha"]))
	spinUntil(t, "concurrent ingest", func() bool { return d.Monitor().Stats().Ingested == want })
	close(stop)
	wg.Wait()
	kill()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g := d.Generation(); g == 0 {
		t.Fatal("no reload applied during the hammer")
	}
}

// TestRefreshPublishesOneWindow refreshes the read snapshot in a loop
// while a backlog ingest keeps crossing bin boundaries, as when a cold
// daemon catches up or lmmonitor replays an archive. Every published
// snapshot must describe one window: each verdict's signal starts at
// WindowStart and spans NBins bins, and Bin is the window's last bin.
func TestRefreshPublishesOneWindow(t *testing.T) {
	const binWidth = 30 * time.Minute
	d, err := NewFromConfig(Config{
		Window: Duration(24 * time.Hour), BinWidth: Duration(binWidth),
		MinTraceroutes: 3, MaxLateness: Duration(2 * time.Hour),
		Targets: []Target{{Name: "backlog", ASN: 64500, Source: "unused"}},
	}, Options{
		Clock: NewFakeClock(soakT0),
		Open:  func(Target) (Source, error) { return nil, errors.New("the test observes directly") },
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The backlog: 40 ASes of one probe each, three days at a 10-minute
	// step, in time order, so the watermark crosses a bin every 120
	// observations.
	const ases = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ts := soakT0; ts.Before(soakT0.Add(72 * time.Hour)); ts = ts.Add(10 * time.Minute) {
			delta := 2.0
			if h := ts.Hour(); h >= 12 && h < 18 {
				delta += 5
			}
			for a := 0; a < ases; a++ {
				if err := d.monitor.Observe(bgp.ASN(64500+a), soakTrace(a+1, ts, delta)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	width := int64(binWidth / time.Second)
	overtaken, checked := 0, 0
	for ingesting := true; ingesting; {
		select {
		case <-done:
			ingesting = false
		default:
		}
		d.refreshSnapshot()
		s := d.ReadSnapshot()
		if bin, _ := d.monitor.NewestBin(); bin != s.Bin {
			overtaken++
		}
		if s.NBins == 0 {
			continue // nothing observed yet
		}
		if last := s.WindowStart.Unix() + int64(s.NBins-1)*width; s.Bin != last {
			t.Fatalf("snapshot bin %d, but its window %v + %d bins ends in bin %d", s.Bin, s.WindowStart, s.NBins, last)
		}
		for _, v := range s.Verdicts {
			if !v.Signal.Start.Equal(s.WindowStart) || v.Signal.Len() != s.NBins {
				t.Fatalf("%v: signal %v + %d bins in a snapshot of window %v + %d bins",
					v.ASN, v.Signal.Start, v.Signal.Len(), s.WindowStart, s.NBins)
			}
			checked++
		}
	}
	if overtaken == 0 || checked == 0 {
		t.Fatalf("ingest overtook %d refreshes and %d verdicts were checked; the test needs both", overtaken, checked)
	}
	t.Logf("%d verdicts checked; ingest overtook %d refreshes", checked, overtaken)
}

// TestAPIVerdictsEncodeError serves a snapshot whose verdicts cannot be
// encoded (JSON has no NaN): the error rendered at publish is served as
// a 500, as an error encoding per request was.
func TestAPIVerdictsEncodeError(t *testing.T) {
	d, _ := newAPIDaemon(t)
	s := *d.ReadSnapshot()
	s.Verdicts = []*stream.Verdict{{ASN: 64500, Signal: &timeseries.Series{}}}
	s.Verdicts[0].DailyAmplitude = math.NaN()
	s.verdictsJSON, s.verdictsErr = renderJSON(verdictsDoc(&s))
	d.snap.store(&s)
	rec, body := get(t, d.Handler(), "/api/verdicts")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(string(body), "unsupported value: NaN") {
		t.Fatalf("verdicts = %d %q, want a 500 naming the NaN", rec.Code, body)
	}
}

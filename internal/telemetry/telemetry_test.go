package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("Counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("Gauge = %d, want 6", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("Counter did not return the same instance for the same name")
	}
	h1 := r.Histogram("lat_seconds", []float64{1, 2})
	h2 := r.Histogram("lat_seconds", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("Histogram did not return the same instance for the same name")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	mustPanic(t, "kind mismatch", func() { r.Gauge("x_total") })
	mustPanic(t, "kind mismatch histogram", func() { r.Histogram("x_total", []float64{1}) })
	mustPanic(t, "bad name", func() { r.Counter("9bad") })
	mustPanic(t, "bad name braces", func() { r.Counter(`x{a="1"}{b="2"}`) })
	r.Histogram("h", []float64{1, 2})
	mustPanic(t, "bounds mismatch", func() { r.Histogram("h", []float64{1, 3}) })
	r.Gauge("g")
	mustPanic(t, "GaugeFunc over plain gauge", func() { r.GaugeFunc("g", func() float64 { return 0 }) })
	mustPanic(t, "nil GaugeFunc", func() { r.GaugeFunc("gf", nil) })
}

func TestGaugeFuncLastWins(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("level", func() float64 { return 1 })
	r.GaugeFunc("level", func() float64 { return 2 })
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Value != 2 {
		t.Fatalf("snapshot = %+v, want single gauge with value 2", snaps)
	}
}

func TestLabeledNames(t *testing.T) {
	r := NewRegistry()
	r.Counter(`ingest_total{shard="0"}`).Add(3)
	r.Counter(`ingest_total{shard="1"}`).Add(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE ingest_total counter\n" +
		"ingest_total{shard=\"0\"} 3\n" +
		"ingest_total{shard=\"1\"} 7\n"
	if sb.String() != want {
		t.Fatalf("WritePrometheus = %q, want %q", sb.String(), want)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 9, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7 (NaN dropped)", got)
	}
	want := []int64{2, 2, 2, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BucketCounts = %v, want %v", got, want)
		}
	}
	if s := h.Sum(); math.Float64bits(s) != math.Float64bits(21.0) {
		t.Fatalf("Sum = %v, want 21", s)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty Quantile = %v, want NaN", q)
	}
	h.Observe(1)
	h.Observe(10) // overflow
	if q := h.Quantile(0.5); math.Float64bits(q) != math.Float64bits(1.0) {
		t.Fatalf("p50 = %v, want 1", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 = %v, want +Inf (overflow bucket)", q)
	}
	if q := h.Quantile(math.NaN()); !math.IsNaN(q) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", q)
	}
	// Out-of-range q clamps rather than panics.
	if q := h.Quantile(-3); math.IsNaN(q) {
		t.Fatal("Quantile(-3) returned NaN, want clamped value")
	}
}

func TestNewHistogramPanics(t *testing.T) {
	mustPanic(t, "empty bounds", func() { NewHistogram(nil) })
	mustPanic(t, "non-increasing", func() { NewHistogram([]float64{2, 1}) })
	mustPanic(t, "NaN bound", func() { NewHistogram([]float64{1, math.NaN()}) })
	mustPanic(t, "Inf bound", func() { NewHistogram([]float64{1, math.Inf(1)}) })
}

func TestBucketHelpers(t *testing.T) {
	// DefLatencyBuckets, the one predefined set, must be valid
	// boundaries: NewHistogram panics on any other.
	NewHistogram(DefLatencyBuckets)
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1, 2})
	h.Observe(1)
	h.Observe(1)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{le=\"1\"} 2\n" +
		"lat_seconds_bucket{le=\"2\"} 2\n" +
		"lat_seconds_bucket{le=\"+Inf\"} 3\n" +
		"lat_seconds_sum 7\n" +
		"lat_seconds_count 3\n"
	if sb.String() != want {
		t.Fatalf("WritePrometheus = %q, want %q", sb.String(), want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	h := r.Histogram("h_seconds", []float64{1})
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name    string   `json:"name"`
			Kind    string   `json:"kind"`
			Value   *float64 `json:"value"`
			Count   *int64   `json:"count"`
			Buckets []struct {
				LE    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("metrics = %d, want 2", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "c_total" || doc.Metrics[0].Value == nil || *doc.Metrics[0].Value != 2 {
		t.Fatalf("counter metric = %+v", doc.Metrics[0])
	}
	hm := doc.Metrics[1]
	if hm.Kind != "histogram" || hm.Count == nil || *hm.Count != 1 {
		t.Fatalf("histogram metric = %+v", hm)
	}
	if len(hm.Buckets) != 2 || hm.Buckets[1].LE != "+Inf" {
		t.Fatalf("histogram buckets = %+v, want final le=+Inf", hm.Buckets)
	}
}

func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Handler Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 1") {
		t.Fatalf("Handler body = %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	r.JSONHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSONHandler Content-Type = %q", ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("JSONHandler body not valid JSON: %q", rec.Body.String())
	}
}

func TestTimerObservesSeconds(t *testing.T) {
	h := NewHistogram([]float64{3600}) // one hour: any real elapsed time lands here
	d := h.Start().Stop()
	if d < 0 {
		t.Fatalf("Timer returned negative duration %v", d)
	}
	if h.Count() != 1 {
		t.Fatalf("Timer did not observe: count = %d", h.Count())
	}
	if got := h.BucketCounts()[0]; got != 1 {
		t.Fatalf("elapsed time not in first bucket: %v", h.BucketCounts())
	}
}

func TestSplitName(t *testing.T) {
	cases := []struct{ in, base, labels string }{
		{"x_total", "x_total", ""},
		{`x_total{shard="3"}`, "x_total", `shard="3"`},
		{`x{a="1",b="2"}`, "x", `a="1",b="2"`},
	}
	for _, c := range cases {
		base, labels := splitName(c.in)
		if base != c.base || labels != c.labels {
			t.Fatalf("splitName(%q) = (%q, %q), want (%q, %q)", c.in, base, labels, c.base, c.labels)
		}
	}
}

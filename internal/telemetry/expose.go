package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper boundary; the final
	// bucket's boundary is +Inf.
	UpperBound float64
	// Count is the cumulative count of observations <= UpperBound.
	Count int64
}

// Snapshot is the frozen state of one metric. Counters and gauges carry
// Value; histograms carry Count, Sum, and Buckets.
type Snapshot struct {
	Name string
	// Kind is "counter", "gauge", or "histogram".
	Kind    string
	Value   float64
	Count   int64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot freezes every metric, sorted by name, so two snapshots of the
// same state render byte-identically. Gauge functions are evaluated
// during the snapshot; concurrent observers keep running (each metric is
// read atomically, but the snapshot is not a point-in-time cut across
// metrics — quiesce first when exact cross-metric consistency matters).
func (r *Registry) Snapshot() []Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	for _, name := range r.namesLocked() {
		switch {
		case r.counters[name] != nil:
			out = append(out, Snapshot{Name: name, Kind: "counter", Value: float64(r.counters[name].Value())})
		case r.gauges[name] != nil:
			out = append(out, Snapshot{Name: name, Kind: "gauge", Value: float64(r.gauges[name].Value())})
		case r.gaugeFuncs[name] != nil:
			out = append(out, Snapshot{Name: name, Kind: "gauge", Value: r.gaugeFuncs[name]()})
		case r.histograms[name] != nil:
			h := r.histograms[name]
			counts := h.BucketCounts()
			bounds := h.bounds
			buckets := make([]BucketCount, len(counts))
			var cum int64
			for i, c := range counts {
				cum += c
				ub := math.Inf(1)
				if i < len(bounds) {
					ub = bounds[i]
				}
				buckets[i] = BucketCount{UpperBound: ub, Count: cum}
			}
			out = append(out, Snapshot{Name: name, Kind: "histogram", Count: h.Count(), Sum: h.Sum(), Buckets: buckets})
		}
	}
	return out
}

// splitName separates an embedded label set from a metric name:
// `x_total{shard="3"}` -> ("x_total", `shard="3"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// formatValue renders a float the way Prometheus text exposition does:
// shortest round-trip representation, +Inf/-Inf spelled out.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series renders one sample line: name{labels} value.
func series(base, labels, value string) string {
	if labels == "" {
		return base + " " + value + "\n"
	}
	return base + "{" + labels + "} " + value + "\n"
}

// joinLabels appends extra to a possibly empty label string.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Series of one metric family (same base name,
// different embedded label sets) are grouped under a single # TYPE line;
// output is deterministic for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	// Group label variants of one family: sort by (base, full name).
	sort.SliceStable(snaps, func(i, j int) bool {
		bi, _ := splitName(snaps[i].Name)
		bj, _ := splitName(snaps[j].Name)
		if bi != bj {
			return bi < bj
		}
		return snaps[i].Name < snaps[j].Name
	})
	var sb strings.Builder
	lastBase := ""
	for _, s := range snaps {
		base, labels := splitName(s.Name)
		if base != lastBase {
			fmt.Fprintf(&sb, "# TYPE %s %s\n", base, s.Kind)
			lastBase = base
		}
		switch s.Kind {
		case "histogram":
			for _, b := range s.Buckets {
				le := joinLabels(labels, `le="`+formatValue(b.UpperBound)+`"`)
				sb.WriteString(series(base+"_bucket", le, strconv.FormatInt(b.Count, 10)))
			}
			sb.WriteString(series(base+"_sum", labels, formatValue(s.Sum)))
			sb.WriteString(series(base+"_count", labels, strconv.FormatInt(s.Count, 10)))
		default:
			sb.WriteString(series(base, labels, formatValue(s.Value)))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// jsonMetric is the stable JSON exposition shape of one metric.
type jsonMetric struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Value   *float64     `json:"value,omitempty"`
	Count   *int64       `json:"count,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

// jsonBucket renders a cumulative bucket; le is a string so +Inf
// survives JSON.
type jsonBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// WriteJSON renders the registry as a deterministic JSON document:
// {"metrics": [...]} sorted by metric name.
func (r *Registry) WriteJSON(w io.Writer) error {
	snaps := r.Snapshot()
	metrics := make([]jsonMetric, 0, len(snaps))
	for _, s := range snaps {
		m := jsonMetric{Name: s.Name, Kind: s.Kind}
		switch s.Kind {
		case "histogram":
			count, sum := s.Count, s.Sum
			m.Count, m.Sum = &count, &sum
			for _, b := range s.Buckets {
				m.Buckets = append(m.Buckets, jsonBucket{LE: formatValue(b.UpperBound), Count: b.Count})
			}
		default:
			v := s.Value
			m.Value = &v
		}
		metrics = append(metrics, m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []jsonMetric `json:"metrics"`
	}{metrics})
}

// Handler serves the registry in Prometheus text format — mount it at
// /metrics on an ops endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// JSONHandler serves the registry as JSON — mount it at /metrics.json.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// OpsMux returns the standard ops endpoint of a long-running command:
// /metrics (Prometheus text), /metrics.json, and the /debug/pprof
// profile handlers, all backed by this registry. serve.Daemon, which
// lmmonitor and lmserved run on, layers its /api routes on top.
func (r *Registry) OpsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/metrics.json", r.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

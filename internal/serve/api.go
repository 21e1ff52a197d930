package serve

// The daemon's read side. Ingest and reads are decoupled through an
// immutable published Snapshot: the maintenance loop classifies the
// window when the observation watermark crosses a bin boundary and
// atomically swaps the result in; API handlers only ever load the
// pointer. Reads therefore never take an engine lock, never block an
// Observe, and two reads between refreshes see the identical world —
// the consistency model is "frozen at the last bin boundary", not
// "racing the ingest path".

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/stream"
)

// snapNoBin is the "no snapshot yet / snapshot holds no data" bin
// sentinel, chosen to never collide with a real engine bin key.
const snapNoBin = -1 << 62

// Snapshot is the daemon's immutable read model: the classified state
// of the window at one moment, shared by every API handler until the
// next refresh replaces it whole.
type Snapshot struct {
	// Gen is the config generation the snapshot was built under.
	Gen int64
	// Built is the daemon-clock time the snapshot was taken.
	Built time.Time
	// Newest is the newest observation; zero before any data.
	Newest time.Time
	// Bin is the engine bin key covering Newest (snapNoBin before any
	// data) — the refresh gate compares it against the live watermark.
	Bin int64
	// WindowStart/NBins/BinWidth are the analysis window the verdicts
	// were computed over.
	WindowStart time.Time
	NBins       int
	BinWidth    time.Duration
	// Verdicts holds one classification per classifiable AS, sorted by
	// ASN; Skipped records the ASes that could not be classified yet.
	Verdicts []*stream.Verdict
	Skipped  []stream.SkippedAS
	// Stats are the engine counters at snapshot time.
	Stats stream.Stats

	byASN map[bgp.ASN]*stream.Verdict
	// verdictsJSON is the /api/verdicts body, rendered at publish, and
	// verdictsErr the error rendering it returned.
	verdictsJSON []byte
	verdictsErr  error
}

// Verdict returns the snapshot's verdict for asn, if any.
func (s *Snapshot) Verdict(asn bgp.ASN) (*stream.Verdict, bool) {
	v, ok := s.byASN[asn]
	return v, ok
}

// snapshotBox is the atomically swapped Snapshot slot.
type snapshotBox struct{ p atomic.Pointer[Snapshot] }

func (b *snapshotBox) load() *Snapshot   { return b.p.Load() }
func (b *snapshotBox) store(s *Snapshot) { b.p.Store(s) }

// bin returns the published snapshot's covered bin key, or snapNoBin.
func (b *snapshotBox) bin() int64 {
	if s := b.p.Load(); s != nil {
		return s.Bin
	}
	return snapNoBin
}

// refreshSnapshot classifies the current window and publishes the
// result. It runs on the maintenance goroutine (construction, bin
// boundaries, drain) — never concurrently with itself, and concurrently
// with ingest only where the engine's shard locking already makes
// classification safe. It reads the watermark once: Newest, Bin, the
// window and every verdict's window all come from that read, so a
// refresh that ingest overtakes still publishes one window. The
// /api/verdicts body is rendered here, once per snapshot.
func (d *Daemon) refreshSnapshot() {
	defer d.refreshTimer.Start().Stop()
	w, ok := d.monitor.Watermark()
	verdicts, skipped := d.monitor.ClassifyWindow(w.WindowStart, w.NBins)
	s := &Snapshot{
		Built:       d.clock.Now(),
		Newest:      w.Newest,
		Bin:         w.Bin,
		WindowStart: w.WindowStart,
		NBins:       w.NBins,
		BinWidth:    d.monitor.BinWidth(),
		Verdicts:    verdicts,
		Skipped:     skipped,
		Stats:       d.monitor.Stats(),
		byASN:       make(map[bgp.ASN]*stream.Verdict, len(verdicts)),
	}
	if !ok {
		s.Bin = snapNoBin
	}
	for _, v := range verdicts {
		s.byASN[v.ASN] = v
	}
	d.mu.Lock()
	s.Gen = d.gen
	d.mu.Unlock()
	s.verdictsJSON, s.verdictsErr = renderJSON(verdictsDoc(s))
	d.snap.store(s)
	d.refreshes.Inc()
}

// ReadSnapshot returns the currently published read model — what the
// API handlers serve. Never nil after New.
func (d *Daemon) ReadSnapshot() *Snapshot { return d.snap.load() }

// Handler returns the daemon's full ops endpoint: the standard OpsMux
// (/metrics, /metrics.json, /debug/pprof) plus the snapshot-backed
// /api routes.
func (d *Daemon) Handler() http.Handler {
	mux := d.reg.OpsMux()
	mux.HandleFunc("GET /api/verdicts", d.counted(d.handleVerdicts))
	mux.HandleFunc("GET /api/series/{asn}", d.counted(d.handleSeries))
	mux.HandleFunc("GET /api/health", d.counted(d.handleHealth))
	return mux
}

// counted wraps an API handler with the request counter.
func (d *Daemon) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d.apiRequests.Inc()
		h(w, r)
	}
}

// renderJSON renders v with a stable indent and a trailing newline; API
// responses are golden-tested byte-for-byte.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writeJSON serves a body renderJSON returned, or its error as a 500.
func writeJSON(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body) // a failed write means the client went away
}

// jsonVerdict is the API shape of one classified AS.
type jsonVerdict struct {
	ASN            bgp.ASN `json:"asn"`
	Class          string  `json:"class"`
	DailyAmplitude float64 `json:"daily_amplitude_ms"`
	IsDaily        bool    `json:"is_daily"`
	Probes         int     `json:"probes"`
	PeakFreqPerDay float64 `json:"peak_freq_per_day"`
	PeakP2P        float64 `json:"peak_p2p_ms"`
}

// jsonSkipped is the API shape of one unclassifiable AS.
type jsonSkipped struct {
	ASN    bgp.ASN `json:"asn"`
	Reason string  `json:"reason"`
}

// jsonWindow is the analysis-window header shared by list responses.
type jsonWindow struct {
	Start    *time.Time `json:"start,omitempty"`
	Bins     int        `json:"bins"`
	BinWidth string     `json:"bin_width"`
}

// verdictsResponse is the /api/verdicts document.
type verdictsResponse struct {
	Generation int64         `json:"generation"`
	Window     jsonWindow    `json:"window"`
	Verdicts   []jsonVerdict `json:"verdicts"`
	Skipped    []jsonSkipped `json:"skipped,omitempty"`
}

// snapWindow renders a snapshot's analysis window.
func snapWindow(s *Snapshot) jsonWindow {
	w := jsonWindow{Bins: s.NBins, BinWidth: s.BinWidth.String()}
	if !s.WindowStart.IsZero() {
		t := s.WindowStart.UTC()
		w.Start = &t
	}
	return w
}

// verdictsDoc builds a snapshot's /api/verdicts document.
func verdictsDoc(s *Snapshot) verdictsResponse {
	resp := verdictsResponse{
		Generation: s.Gen,
		Window:     snapWindow(s),
		Verdicts:   make([]jsonVerdict, 0, len(s.Verdicts)),
	}
	for _, v := range s.Verdicts {
		resp.Verdicts = append(resp.Verdicts, jsonVerdict{
			ASN:            v.ASN,
			Class:          v.Class.String(),
			DailyAmplitude: v.DailyAmplitude,
			IsDaily:        v.IsDaily,
			Probes:         v.Probes,
			PeakFreqPerDay: v.Peak.Freq * 24,
			PeakP2P:        v.Peak.P2P,
		})
	}
	for _, sk := range s.Skipped {
		resp.Skipped = append(resp.Skipped, jsonSkipped{ASN: sk.ASN, Reason: sk.Reason.Error()})
	}
	return resp
}

// handleVerdicts serves the classified state of every monitored AS: the
// body the published snapshot rendered when it was built.
func (d *Daemon) handleVerdicts(w http.ResponseWriter, _ *http.Request) {
	s := d.snap.load()
	writeJSON(w, s.verdictsJSON, s.verdictsErr)
}

// seriesResponse is the /api/series/{asn} document. Values mirror the
// aggregated queuing-delay signal; gap bins are null (JSON has no NaN).
type seriesResponse struct {
	ASN        bgp.ASN    `json:"asn"`
	Generation int64      `json:"generation"`
	Start      time.Time  `json:"start"`
	StepSecs   float64    `json:"step_seconds"`
	Values     []*float64 `json:"values"`
}

// handleSeries serves one AS's aggregated delay signal from the
// published snapshot: 400 for an unparseable ASN, 404 for an AS the
// snapshot holds no verdict for.
func (d *Daemon) handleSeries(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("asn")
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		http.Error(w, "bad asn: "+raw, http.StatusBadRequest)
		return
	}
	s := d.snap.load()
	v, ok := s.Verdict(bgp.ASN(n))
	if !ok {
		http.Error(w, "no verdict for AS"+raw, http.StatusNotFound)
		return
	}
	sig := v.Signal
	resp := seriesResponse{
		ASN:        v.ASN,
		Generation: s.Gen,
		Start:      sig.Start.UTC(),
		StepSecs:   sig.Step.Seconds(),
		Values:     make([]*float64, len(sig.Values)),
	}
	for i, val := range sig.Values {
		if !math.IsNaN(val) {
			v := val
			resp.Values[i] = &v
		}
	}
	body, err := renderJSON(resp)
	writeJSON(w, body, err)
}

// jsonTarget is one target's live lifecycle state in /api/health.
type jsonTarget struct {
	Name     string  `json:"name"`
	ASN      bgp.ASN `json:"asn"`
	State    string  `json:"state"`
	Ingested int64   `json:"ingested"`
}

// healthResponse is the /api/health document: config generation and
// target lifecycle are read live (under the daemon lock only — never an
// engine lock); window facts come from the published snapshot.
type healthResponse struct {
	Status     string       `json:"status"`
	Generation int64        `json:"generation"`
	LastReload *time.Time   `json:"last_reload,omitempty"`
	Window     jsonWindow   `json:"window"`
	Newest     *time.Time   `json:"newest,omitempty"`
	Ingested   int64        `json:"ingested"`
	Dropped    int64        `json:"dropped"`
	ASes       int64        `json:"ases"`
	Targets    []jsonTarget `json:"targets"`
}

// handleHealth serves the daemon's liveness document.
func (d *Daemon) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s := d.snap.load()
	resp := healthResponse{
		Status:   "ok",
		Window:   snapWindow(s),
		Ingested: s.Stats.Ingested,
		Dropped:  s.Stats.Dropped,
		ASes:     s.Stats.ASes,
	}
	if !s.Newest.IsZero() {
		t := s.Newest.UTC()
		resp.Newest = &t
	}
	d.mu.Lock()
	resp.Generation = d.gen
	if !d.lastReload.IsZero() {
		t := d.lastReload.UTC()
		resp.LastReload = &t
	}
	if d.draining {
		resp.Status = "draining"
	}
	resp.Targets = make([]jsonTarget, 0, len(d.targets))
	for _, r := range d.targets {
		resp.Targets = append(resp.Targets, jsonTarget{
			Name:     r.target.Name,
			ASN:      r.target.ASN,
			State:    r.state.get().String(),
			Ingested: r.ingested.get(),
		})
	}
	d.mu.Unlock()
	sort.Slice(resp.Targets, func(i, j int) bool { return resp.Targets[i].Name < resp.Targets[j].Name })
	body, err := renderJSON(resp)
	writeJSON(w, body, err)
}

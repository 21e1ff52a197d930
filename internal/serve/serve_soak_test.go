package serve

// The deterministic soak harness — the pin on the daemon's headline
// claim: a long-running lmserved, through config reloads, target churn,
// a SIGHUP storm, and a kill-and-resume, ends with verdicts
// bit-identical to a batch core.RunSurvey replay of exactly the
// observations it was handed.
//
// Determinism comes from three properties working together:
//
//   - Time is simulated: every timer in the daemon goes through the
//     Clock seam, and the harness's sources release an observation only
//     once the fake clock reaches its timestamp, so "three simulated
//     days" runs in milliseconds and every reload lands at an exact
//     simulated instant.
//   - The ledger records ground truth at the only correct point: a
//     source appends to it when Next hands a result out, and the
//     daemon's runner contract (a returned result is always delivered,
//     even mid-drain) makes ledger == engine input by construction.
//   - The engine's exact order-statistic medians make final verdicts
//     independent of goroutine interleaving, so the equivalence holds
//     under -race schedules and any worker/shard interleaving — the
//     harness never needs to serialise ingest to compare results.
//
// The timeline (simulated, t0 = 2019-09-01T00:00Z, window 72h):
//
//	t0-1h    boot v1 {alpha, beta, gamma}; alpha congested, beta flat,
//	         gamma short-lived (EOF at 24h)
//	24h      HUP -> v2: remove finished gamma, add delta (data from 25h)
//	48h      HUP -> v3: remove beta MID-STREAM (its data runs to 72h);
//	         then a 5x HUP storm of no-op reloads
//	60h      SIGTERM-equivalent: ctx cancel -> drain, final checkpoint
//	60h      second daemon resumes from the checkpoint, phase-2 sources
//	         serve strictly post-60h data; config now polls hourly
//	62h      config file rewritten -> v4 adds epsilon (data from 66h),
//	         picked up by the POLL path, no signal sent
//	72h      final drain; published snapshot vs batch replay of ledger

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

var soakT0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// soakTrace builds a 2-hop traceroute with the given last-mile delta.
func soakTrace(probeID int, ts time.Time, deltaMs float64) *traceroute.Result {
	priv := netip.MustParseAddr("192.168.1.1")
	pub := netip.MustParseAddr("203.0.113.1")
	r := &traceroute.Result{
		ProbeID: probeID, MsmID: 5004, Timestamp: ts, AF: 4,
		SrcAddr: netip.MustParseAddr("192.168.1.10"),
		DstAddr: netip.MustParseAddr("198.41.0.4"),
	}
	h1 := traceroute.HopResult{Hop: 1}
	h2 := traceroute.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		h1.Replies = append(h1.Replies, traceroute.Reply{From: priv, RTT: 0.5, TTL: 64})
		h2.Replies = append(h2.Replies, traceroute.Reply{From: pub, RTT: 0.5 + deltaMs, TTL: 254})
	}
	r.Hops = []traceroute.HopResult{h1, h2}
	return r
}

// soakObs is one scheduled observation in a target timeline.
type soakObs struct {
	asn bgp.ASN
	ts  time.Time
	res *traceroute.Result
}

// diurnalTimeline builds [from, to) at the given step for three probes,
// with a 12:00–18:00 UTC queuing bump of bumpMs over a 2 ms base.
func diurnalTimeline(asn bgp.ASN, probeBase int, from, to time.Time, step time.Duration, bumpMs float64) []soakObs {
	var out []soakObs
	for ts := from; ts.Before(to); ts = ts.Add(step) {
		delta := 2.0
		if h := ts.Hour(); h >= 12 && h < 18 {
			delta += bumpMs
		}
		for p := 0; p < 3; p++ {
			out = append(out, soakObs{asn: asn, ts: ts, res: soakTrace(probeBase+p, ts, delta)})
		}
	}
	return out
}

// releasedCount counts the timeline prefix a clock-gated source has
// released by cutoff (inclusive — a source releases ts once now >= ts).
func releasedCount(tl []soakObs, cutoff time.Time) int64 {
	var n int64
	for _, o := range tl {
		if !o.ts.After(cutoff) {
			n++
		}
	}
	return n
}

// suffixAfter returns the timeline strictly after cutoff — what a
// resumed daemon's source must serve when the killed daemon had
// released everything through cutoff.
func suffixAfter(tl []soakObs, cutoff time.Time) []soakObs {
	var out []soakObs
	for _, o := range tl {
		if o.ts.After(cutoff) {
			out = append(out, o)
		}
	}
	return out
}

// soakHarness owns the fake clock, the per-source timelines, and the
// ledger of every observation actually handed to a daemon.
type soakHarness struct {
	clock *FakeClock

	mu        sync.Mutex
	timelines map[string][]soakObs
	ledger    []core.AttributedResult
}

// setTimelines swaps the source map (phase-2 suffixes replace phase-1
// timelines before the resumed daemon opens its sources).
func (h *soakHarness) setTimelines(m map[string][]soakObs) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.timelines = m
}

// record appends one handed-out observation to the ledger.
func (h *soakHarness) record(o soakObs) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ledger = append(h.ledger, core.AttributedResult{ASN: o.asn, Result: o.res})
}

// ledgerCopy snapshots the ledger for batch replay.
func (h *soakHarness) ledgerCopy() []core.AttributedResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]core.AttributedResult(nil), h.ledger...)
}

// opener resolves Target.Source as a timeline key.
func (h *soakHarness) opener(t Target) (Source, error) {
	h.mu.Lock()
	tl, ok := h.timelines[t.Source]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("soak: no timeline %q", t.Source)
	}
	return &scriptSource{h: h, obs: tl}, nil
}

// scriptSource replays a timeline gated by the fake clock: an
// observation is released only once simulated now reaches its
// timestamp, so a drain at simulated time T hands out exactly the
// prefix through T.
type scriptSource struct {
	h   *soakHarness
	obs []soakObs
	i   int
}

func (s *scriptSource) Next(ctx context.Context) (bgp.ASN, *traceroute.Result, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if s.i >= len(s.obs) {
		return 0, nil, io.EOF
	}
	o := s.obs[s.i]
	// Gate on the absolute simulated timestamp: AfterTime is immune to
	// the register/advance race, so a source never parks past its
	// release instant no matter how the test's Advance calls interleave
	// with runner scheduling.
	for o.ts.After(s.h.clock.Now()) {
		select {
		case <-s.h.clock.AfterTime(o.ts):
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	s.i++
	// Ledger at hand-out time: the runner contract guarantees this
	// result reaches the engine even if the drain lands right now.
	s.h.record(o)
	return o.asn, o.res, nil
}

func (s *scriptSource) Close() error { return nil }

// spinUntil waits (bounded) for an asynchronously-ingesting daemon to
// reach a condition. The condition is deterministic — the spin only
// bridges goroutine scheduling, never simulated time.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// soakConfig renders one config file version.
func soakConfig(statePath, poll string, targets ...Target) string {
	doc := `{
  "state_path": %q,
  "window": "72h", "bin_width": "30m", "min_traceroutes": 3, "max_lateness": "2h",
  "shards": 4, "workers": 2, "max_concurrent": 2,
  "poll_interval": %q,
  "targets": [`
	out := fmt.Sprintf(doc, statePath, poll)
	for i, t := range targets {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("\n    {\"name\": %q, \"asn\": %d, \"source\": %q}", t.Name, t.ASN, t.Source)
	}
	return out + "\n  ]\n}\n"
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestServeSoakEquivalence(t *testing.T) {
	// Sampling cadence scales with test mode. 10 minutes is the floor:
	// it yields exactly min_traceroutes (3) per probe-bin, so anything
	// sparser would leave every bin below the sanity threshold.
	step := 5 * time.Minute
	if testing.Short() {
		step = 10 * time.Minute
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "lmserved.json")
	statePath := filepath.Join(dir, "lmserved.state")

	tgt := func(name string, asn bgp.ASN) Target {
		return Target{Name: name, ASN: asn, Source: "src-" + name}
	}
	alpha, beta, gamma := tgt("alpha", 64500), tgt("beta", 64501), tgt("gamma", 64502)
	delta, epsilon := tgt("delta", 64503), tgt("epsilon", 64504)

	at := func(d time.Duration) time.Time { return soakT0.Add(d) }
	full := map[string][]soakObs{
		alpha.Source:   diurnalTimeline(alpha.ASN, 1, at(0), at(72*time.Hour), step, 8),
		beta.Source:    diurnalTimeline(beta.ASN, 4, at(0), at(72*time.Hour), step, 0),
		gamma.Source:   diurnalTimeline(gamma.ASN, 7, at(0), at(24*time.Hour), step, 3),
		delta.Source:   diurnalTimeline(delta.ASN, 10, at(25*time.Hour), at(72*time.Hour), step, 8),
		epsilon.Source: diurnalTimeline(epsilon.ASN, 13, at(66*time.Hour), at(72*time.Hour), step, 0),
	}
	h := &soakHarness{clock: NewFakeClock(at(-time.Hour))}
	h.setTimelines(full)

	logf := func(format string, args ...any) { t.Logf("daemon: "+format, args...) }

	// ---- Phase 1: boot v1, reload to v2 and v3, HUP storm, kill at 60h.
	writeFile(t, cfgPath, soakConfig(statePath, "0s", alpha, beta, gamma))
	d1, err := New(cfgPath, Options{Clock: h.clock, Open: h.opener, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill1 := context.WithCancel(context.Background())
	hup1 := make(chan os.Signal, 16)
	run1 := make(chan error, 1)
	go func() { run1 <- d1.Run(ctx1, hup1) }()

	ingested := func(d *Daemon, want int64) func() bool {
		return func() bool { return d.Monitor().Stats().Ingested == want }
	}

	// Day 1: alpha+beta stream, gamma streams its 24h and finishes.
	h.clock.Advance(25 * time.Hour) // sim now = 24h
	want := releasedCount(full[alpha.Source], at(24*time.Hour)) +
		releasedCount(full[beta.Source], at(24*time.Hour)) +
		int64(len(full[gamma.Source]))
	spinUntil(t, "day-1 ingest", ingested(d1, want))

	// Reload v2 at 24h: drop finished gamma, add delta.
	writeFile(t, cfgPath, soakConfig(statePath, "0s", alpha, beta, delta))
	hup1 <- os.Interrupt // any signal value: the channel is the trigger
	spinUntil(t, "reload v2", func() bool { return d1.Generation() == 1 })

	// Day 2: delta joins at 25h.
	h.clock.Advance(24 * time.Hour) // sim now = 48h
	want = releasedCount(full[alpha.Source], at(48*time.Hour)) +
		releasedCount(full[beta.Source], at(48*time.Hour)) +
		int64(len(full[gamma.Source])) +
		releasedCount(full[delta.Source], at(48*time.Hour))
	spinUntil(t, "day-2 ingest", ingested(d1, want))

	// Reload v3 at 48h: beta is removed MID-STREAM — its timeline runs
	// to 72h, but the drain freezes its contribution at exactly <=48h.
	// applyConfig waits for the drained runner before returning, so
	// Generation()==2 implies beta is fully stopped.
	writeFile(t, cfgPath, soakConfig(statePath, "0s", alpha, delta))
	hup1 <- os.Interrupt
	spinUntil(t, "reload v3", func() bool { return d1.Generation() == 2 })

	// HUP storm: five rapid no-op reloads must not perturb anything.
	for i := 0; i < 5; i++ {
		hup1 <- os.Interrupt
	}
	spinUntil(t, "HUP storm", func() bool { return d1.Generation() == 7 })

	// Half of day 3, then kill mid-stream.
	h.clock.Advance(12 * time.Hour) // sim now = 60h
	phase1Want := releasedCount(full[alpha.Source], at(60*time.Hour)) +
		releasedCount(full[beta.Source], at(48*time.Hour)) +
		int64(len(full[gamma.Source])) +
		releasedCount(full[delta.Source], at(60*time.Hour))
	spinUntil(t, "pre-kill ingest", ingested(d1, phase1Want))

	kill1()
	if err := <-run1; err != nil {
		t.Fatalf("phase-1 Run: %v", err)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	if got := int64(len(h.ledgerCopy())); got != phase1Want {
		t.Fatalf("phase-1 ledger = %d results, want %d", got, phase1Want)
	}

	// ---- Phase 2: resume from the checkpoint; sources serve strictly
	// post-kill data; the config now polls so v4 needs no signal.
	h.setTimelines(map[string][]soakObs{
		alpha.Source:   suffixAfter(full[alpha.Source], at(60*time.Hour)),
		delta.Source:   suffixAfter(full[delta.Source], at(60*time.Hour)),
		epsilon.Source: full[epsilon.Source],
	})
	writeFile(t, cfgPath, soakConfig(statePath, "1h", alpha, delta))
	d2, err := New(cfgPath, Options{Clock: h.clock, Open: h.opener, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	// Restored engine counters prove this is a resume, not a cold start.
	if got := d2.Monitor().Stats().Ingested; got != phase1Want {
		t.Fatalf("resumed monitor Ingested = %d, want %d", got, phase1Want)
	}
	ctx2, kill2 := context.WithCancel(context.Background())
	hup2 := make(chan os.Signal, 1)
	run2 := make(chan error, 1)
	go func() { run2 <- d2.Run(ctx2, hup2) }()

	h.clock.Advance(2 * time.Hour) // sim now = 62h
	want = phase1Want +
		releasedCount(full[alpha.Source], at(62*time.Hour)) - releasedCount(full[alpha.Source], at(60*time.Hour)) +
		releasedCount(full[delta.Source], at(62*time.Hour)) - releasedCount(full[delta.Source], at(60*time.Hour))
	spinUntil(t, "post-resume ingest", ingested(d2, want))

	// v4 lands on disk at 62h; only the hourly poll can pick it up. The
	// poll fires on a maintenance wakeup, so advance in small simulated
	// steps until the daemon has the new target (well before epsilon's
	// 66h data start).
	writeFile(t, cfgPath, soakConfig(statePath, "1h", alpha, delta, epsilon))
	hasEpsilon := func() bool {
		d2.mu.Lock()
		defer d2.mu.Unlock()
		_, ok := d2.targets[epsilon.Name]
		return ok
	}
	for !hasEpsilon() {
		if h.clock.Now().After(at(65 * time.Hour)) {
			t.Fatal("poll reload never picked up v4")
		}
		h.clock.Advance(10 * time.Minute)
		time.Sleep(time.Millisecond)
	}

	// Run out the clock; every source hits EOF.
	for h.clock.Now().Before(at(72 * time.Hour)) {
		h.clock.Advance(time.Hour)
	}
	finalWant := int64(len(full[gamma.Source])) +
		releasedCount(full[beta.Source], at(48*time.Hour)) +
		int64(len(full[alpha.Source])+len(full[delta.Source])+len(full[epsilon.Source]))
	spinUntil(t, "final ingest", ingested(d2, finalWant))

	kill2()
	if err := <-run2; err != nil {
		t.Fatalf("phase-2 Run: %v", err)
	}

	// ---- Equivalence: published snapshot vs batch replay of the ledger.
	ledger := h.ledgerCopy()
	if int64(len(ledger)) != finalWant {
		t.Fatalf("ledger = %d results, want %d", len(ledger), finalWant)
	}
	snap := d2.ReadSnapshot()
	if snap == nil || len(snap.Verdicts) == 0 {
		t.Fatal("no final snapshot verdicts")
	}
	start, nBins, ok := d2.Monitor().WindowBounds()
	if !ok {
		t.Fatal("no window bounds after soak")
	}
	end := start.Add(time.Duration(nBins) * snap.BinWidth)
	batch, batchSkipped, err := core.RunSurvey("soak-replay", ledger, core.SurveyOptions{
		Start: start, End: end, BinWidth: snap.BinWidth, MinTraceroutes: 3,
		Workers: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(snap.Verdicts) != batch.Len() {
		t.Fatalf("%d daemon verdicts vs %d batch results", len(snap.Verdicts), batch.Len())
	}
	if len(snap.Skipped) != len(batchSkipped) {
		t.Fatalf("%d daemon skips vs %d batch skips", len(snap.Skipped), len(batchSkipped))
	}
	for i := range snap.Skipped {
		if snap.Skipped[i].ASN != batchSkipped[i].ASN {
			t.Fatalf("skip %d: AS%v vs batch AS%v", i, snap.Skipped[i].ASN, batchSkipped[i].ASN)
		}
	}
	for _, v := range snap.Verdicts {
		b := batch.Results[v.ASN]
		if b == nil {
			t.Fatalf("AS%v in daemon snapshot but absent from batch replay", v.ASN)
		}
		if v.Probes != b.Probes || v.Class != b.Class || v.IsDaily != b.IsDaily {
			t.Fatalf("AS%v verdict {%d, %v, %v} vs batch {%d, %v, %v}",
				v.ASN, v.Probes, v.Class, v.IsDaily, b.Probes, b.Class, b.IsDaily)
		}
		if math.Float64bits(v.DailyAmplitude) != math.Float64bits(b.DailyAmplitude) {
			t.Fatalf("AS%v amplitude %v vs batch %v", v.ASN, v.DailyAmplitude, b.DailyAmplitude)
		}
		if fmt.Sprintf("%#v", v.Peak) != fmt.Sprintf("%#v", b.Peak) {
			t.Fatalf("AS%v peak %#v vs batch %#v", v.ASN, v.Peak, b.Peak)
		}
		if !v.Signal.Start.Equal(b.Signal.Start) || v.Signal.Step != b.Signal.Step ||
			len(v.Signal.Values) != len(b.Signal.Values) {
			t.Fatalf("AS%v signal axis differs", v.ASN)
		}
		for i := range v.Signal.Values {
			if math.Float64bits(v.Signal.Values[i]) != math.Float64bits(b.Signal.Values[i]) {
				t.Fatalf("AS%v signal[%d] = %v vs batch %v",
					v.ASN, i, v.Signal.Values[i], b.Signal.Values[i])
			}
		}
	}

	// Scenario sanity: the congested targets report, the flat one is
	// None, and the short-lived ones are too gappy to classify.
	byASN := map[bgp.ASN]*core.Class{}
	for _, v := range snap.Verdicts {
		c := v.Class
		byASN[v.ASN] = &c
	}
	if c := byASN[alpha.ASN]; c == nil || !c.Reported() {
		t.Fatalf("alpha class = %v, want congested", c)
	}
	if c := byASN[beta.ASN]; c == nil || *c != core.None {
		t.Fatalf("beta class = %v, want None", c)
	}
	for _, asn := range []bgp.ASN{gamma.ASN, epsilon.ASN} {
		if byASN[asn] != nil {
			t.Fatalf("AS%v classified, want skipped as too gappy", asn)
		}
	}
	// The soak exercised the reload machinery hard: 7 applied reloads in
	// phase 1 (two diffs + the storm) and at least the poll-applied v4
	// in phase 2.
	if d1.Generation() != 7 || d2.Generation() < 1 {
		t.Fatalf("generations = %d/%d, want 7/>=1", d1.Generation(), d2.Generation())
	}
}

package serve

// Daemon unit tests: deterministic startup jitter, the reload rejection
// paths (bad JSON, frozen engine-semantic fields, reload-while-draining,
// a daemon built from a Config value with no file), and the invariant that a rejected reload leaves the running config,
// generation, and target set untouched; a drain during startup jitter,
// generation reads during reloads, and the ops listener's shutdown.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestJitterForDeterministicAndBounded(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	writeFile(t, cfgPath, `{
  "window": "48h", "bin_width": "30m", "startup_jitter": "1h",
  "targets": [{"name": "alpha", "asn": 64500, "source": "src-alpha"}]
}`)
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{"src-alpha": nil})
	d, err := New(cfgPath, Options{Clock: h.clock, Open: h.opener, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	jitter := time.Duration(d.cfg.StartupJitter)
	seen := map[time.Duration]bool{}
	for _, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"} {
		j1, j2 := d.jitterFor(name), d.jitterFor(name)
		if j1 != j2 {
			t.Fatalf("jitterFor(%q) not deterministic: %v vs %v", name, j1, j2)
		}
		if j1 < 0 || j1 >= jitter {
			t.Fatalf("jitterFor(%q) = %v, want in [0, %v)", name, j1, jitter)
		}
		seen[j1] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all names hashed to the same jitter %v: no spread", seen)
	}

	// Zero configured jitter disables the stagger entirely.
	d.mu.Lock()
	d.cfg.StartupJitter = 0
	d.mu.Unlock()
	if j := d.jitterFor("alpha"); j != 0 {
		t.Fatalf("jitterFor with zero jitter = %v, want 0", j)
	}
}

func TestStartupJitterDelaysSourceOpen(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	writeFile(t, cfgPath, `{
  "window": "48h", "bin_width": "30m", "min_traceroutes": 3, "max_lateness": "2h",
  "startup_jitter": "1h",
  "targets": [
    {"name": "alpha", "asn": 64500, "source": "src-alpha"},
    {"name": "beta", "asn": 64501, "source": "src-beta"}
  ]
}`)
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{
		"src-alpha": diurnalTimeline(64500, 1, soakT0.Add(-time.Hour), soakT0, 10*time.Minute, 8),
		"src-beta":  diurnalTimeline(64501, 4, soakT0.Add(-time.Hour), soakT0, 10*time.Minute, 8),
	})
	var opens atomic.Int64
	open := func(tgt Target) (Source, error) {
		opens.Add(1)
		return h.opener(tgt)
	}
	d, err := New(cfgPath, Options{Clock: h.clock, Open: open, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if d.jitterFor(name) <= 0 {
			t.Fatalf("precondition: jitterFor(%q) = %v, want > 0", name, d.jitterFor(name))
		}
	}

	ctx, kill := context.WithCancel(context.Background())
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, nil) }()

	// Both runners park on their jitter timers and the maintenance loop
	// parks on its tick before time moves: no source may open yet.
	h.clock.BlockUntil(3)
	if n := opens.Load(); n != 0 {
		t.Fatalf("%d source(s) opened before the jitter elapsed", n)
	}

	// Advancing past the jitter bound releases both runners; the data is
	// all older than now, so ingest runs straight to EOF.
	h.clock.Advance(time.Hour)
	want := int64(len(h.timelines["src-alpha"]) + len(h.timelines["src-beta"]))
	spinUntil(t, "jittered ingest", func() bool { return d.Monitor().Stats().Ingested == want })
	if n := opens.Load(); n != 2 {
		t.Fatalf("opens = %d after jitter, want 2", n)
	}
	kill()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// targetNames reads the live target set the way the health handler does.
func targetNames(d *Daemon) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.targets))
	for name := range d.targets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestReloadRejectionsKeepRunningConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	v1 := `{
  "window": "48h", "bin_width": "30m", "min_traceroutes": 3, "max_lateness": "2h",
  "targets": [{"name": "alpha", "asn": 64500, "source": "src-alpha"}]
}`
	writeFile(t, cfgPath, v1)
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{
		"src-alpha": diurnalTimeline(64500, 1, soakT0.Add(-time.Hour), soakT0, 10*time.Minute, 8),
		"src-beta":  diurnalTimeline(64501, 4, soakT0.Add(-time.Hour), soakT0, 10*time.Minute, 8),
	})
	d, err := New(cfgPath, Options{Clock: h.clock, Open: h.opener, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	hup := make(chan os.Signal, 4)
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, hup) }()
	spinUntil(t, "boot ingest", func() bool {
		return d.Monitor().Stats().Ingested == int64(len(h.timelines["src-alpha"]))
	})

	// A config that fails to parse is rejected whole: the error counter
	// moves, the generation and target set do not.
	writeFile(t, cfgPath, `{"targets": [`)
	hup <- os.Interrupt
	spinUntil(t, "parse rejection", func() bool { return d.reloadErrs.Value() == 1 })
	if g := d.Generation(); g != 0 {
		t.Fatalf("generation = %d after rejected reload, want 0", g)
	}

	// A config that changes a frozen engine-semantic field is rejected
	// the same way, even though it parses.
	writeFile(t, cfgPath, strings.Replace(v1, `"window": "48h"`, `"window": "24h"`, 1))
	hup <- os.Interrupt
	spinUntil(t, "frozen-field rejection", func() bool { return d.reloadErrs.Value() == 2 })
	if g := d.Generation(); g != 0 {
		t.Fatalf("generation = %d after rejected reload, want 0", g)
	}
	if got := targetNames(d); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("targets = %v after rejected reloads, want [alpha]", got)
	}

	// A valid operational change still applies after the rejections: the
	// rejection path must not wedge the reload machinery.
	writeFile(t, cfgPath, strings.Replace(v1,
		`{"name": "alpha", "asn": 64500, "source": "src-alpha"}`,
		`{"name": "alpha", "asn": 64500, "source": "src-alpha"},
     {"name": "beta", "asn": 64501, "source": "src-beta"}`, 1))
	hup <- os.Interrupt
	spinUntil(t, "valid reload", func() bool { return d.Generation() == 1 })
	if got := targetNames(d); len(got) != 2 || got[1] != "beta" {
		t.Fatalf("targets = %v after valid reload, want [alpha beta]", got)
	}
	if errs := d.reloadErrs.Value(); errs != 2 {
		t.Fatalf("reload errors = %d after valid reload, want 2", errs)
	}

	kill()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestApplyConfigRejectedWhileDraining(t *testing.T) {
	d, _ := newAPIDaemon(t)
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	cfg, err := LoadConfig(d.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.applyConfig(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("applyConfig while draining = %v, want draining error", err)
	}
}

// TestNewFromConfig pins the constructor from a Config value: it
// validates and defaults like a parsed file, and a daemon built this way
// has no file to reload from, so a reload request is rejected and
// counted while the running config stays in force.
func TestNewFromConfig(t *testing.T) {
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{"src-alpha": nil})
	opts := Options{Clock: h.clock, Open: h.opener, Logf: t.Logf}
	alpha := []Target{{Name: "alpha", ASN: 64500, Source: "src-alpha"}}
	if _, err := NewFromConfig(Config{Window: Duration(-time.Hour), Targets: alpha}, opts); err == nil ||
		!strings.Contains(err.Error(), "negative window") {
		t.Fatalf("err = %v, want negative-window rejection", err)
	}
	d, err := NewFromConfig(Config{Targets: alpha}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.MaxConcurrent != 4 {
		t.Fatalf("MaxConcurrent = %d, want default 4", d.cfg.MaxConcurrent)
	}

	ctx, kill := context.WithCancel(context.Background())
	hup := make(chan os.Signal, 1)
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, hup) }()
	hup <- os.Interrupt
	spinUntil(t, "reload rejection", func() bool { return d.reloadErrs.Value() == 1 })
	if g := d.Generation(); g != 0 {
		t.Fatalf("generation = %d after rejected reload, want 0", g)
	}
	kill()
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCancelDuringStartupJitter pins that a drain does not wait out the
// startup jitter: cancelled while both runners still wait on their jitter
// timers, with the clock never advanced, Run returns and no source opens.
func TestCancelDuringStartupJitter(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	writeFile(t, cfgPath, `{
  "window": "48h", "bin_width": "30m", "startup_jitter": "1h",
  "targets": [
    {"name": "alpha", "asn": 64500, "source": "src-alpha"},
    {"name": "beta", "asn": 64501, "source": "src-beta"}
  ]
}`)
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{"src-alpha": nil, "src-beta": nil})
	var opens atomic.Int64
	open := func(tgt Target) (Source, error) {
		opens.Add(1)
		return h.opener(tgt)
	}
	d, err := New(cfgPath, Options{Clock: h.clock, Open: open, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	ctx, kill := context.WithCancel(context.Background())
	run := make(chan error, 1)
	go func() { run <- d.Run(ctx, nil) }()
	h.clock.BlockUntil(3) // two jitter timers and the maintenance tick
	kill()
	select {
	case err := <-run:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a runner still waits out its startup jitter")
	}
	if n := opens.Load(); n != 0 {
		t.Fatalf("%d source(s) opened by a drained daemon", n)
	}
}

// TestGenerationReadDuringReloads pins that an applied reload publishes
// its generation under the daemon mutex: Generation reads run
// concurrently with reloads, which the race detector flags otherwise,
// and never go backwards. Each reload changes the one target, so it
// waits for the cancelled runner outside the lock while the reads go on.
func TestGenerationReadDuringReloads(t *testing.T) {
	d, _ := newAPIDaemon(t)
	v1, err := LoadConfig(d.path)
	if err != nil {
		t.Fatal(err)
	}
	v2 := *v1
	v2.Targets = []Target{{Name: "alpha", ASN: 64501, Source: "src-alpha"}}
	ctx, kill := context.WithCancel(context.Background())
	defer func() {
		kill()
		d.wg.Wait()
	}()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := d.Generation()
			if g < last {
				t.Errorf("generation went from %d back to %d", last, g)
				return
			}
			last = g
		}
	}()
	const reloads = 400
	for i := 0; i < reloads; i++ {
		next := v1
		if i%2 == 0 {
			next = &v2
		}
		if err := d.applyConfig(ctx, next); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if g := d.Generation(); g != reloads {
		t.Fatalf("generation = %d after %d reloads", g, reloads)
	}
}

// TestListenHTTPStopJoinsServer pins that the stop ListenHTTP returns
// leaves no serving goroutine behind.
func TestListenHTTPStopJoinsServer(t *testing.T) {
	h := &soakHarness{clock: NewFakeClock(soakT0)}
	h.setTimelines(map[string][]soakObs{"src-alpha": nil})
	d, err := NewFromConfig(Config{
		HTTPAddr: "127.0.0.1:0",
		Targets:  []Target{{Name: "alpha", ASN: 64500, Source: "src-alpha"}},
	}, Options{Clock: h.clock, Open: h.opener, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	servers := func() int {
		buf := make([]byte, 1<<20)
		return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Daemon).ListenHTTP in goroutine"))
	}
	before := servers()
	stop, err := d.ListenHTTP()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	spinUntil(t, "the server goroutine to exit", func() bool { return servers() <= before })
}

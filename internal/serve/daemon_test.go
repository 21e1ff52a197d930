package serve

// Daemon unit tests: the reload rejection paths (bad JSON, frozen
// engine-semantic fields, reload-while-draining, a daemon built from a
// Config value with no file), and the invariant that a rejected reload
// leaves the running config, generation, and target set untouched;
// generation reads during reloads, and the ops listener's shutdown.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

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
// validates like a parsed file, and a daemon built this way
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

package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/core"
)

func TestParseConfigFull(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"http_addr": "127.0.0.1:0",
		"state_path": "/tmp/lmserved.state",
		"window": "96h",
		"bin_width": "30m",
		"min_traceroutes": 3,
		"max_lateness": 7200000000000,
		"thresholds": {"low": 0.5, "mild": 1, "severe": 3},
		"poll_interval": "1h",
		"targets": [
			{"name": "alpha", "asn": 64500, "source": "/data/alpha.jsonl"},
			{"name": "beta", "asn": 64501, "source": "/data/beta.wire"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HTTPAddr != "127.0.0.1:0" || cfg.StatePath != "/tmp/lmserved.state" {
		t.Fatalf("addr/state = %q/%q", cfg.HTTPAddr, cfg.StatePath)
	}
	// Durations parse from both string and nanosecond-number forms.
	if time.Duration(cfg.Window) != 96*time.Hour || time.Duration(cfg.MaxLateness) != 2*time.Hour {
		t.Fatalf("window/lateness = %v/%v", cfg.Window, cfg.MaxLateness)
	}
	if time.Duration(cfg.PollInterval) != time.Hour {
		t.Fatalf("poll interval = %v", cfg.PollInterval)
	}
	if len(cfg.Targets) != 2 || cfg.Targets[1].ASN != 64501 {
		t.Fatalf("targets = %+v", cfg.Targets)
	}
}

func TestParseConfigRejections(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"tragets": [], "targets": [{"name": "a"}]}`, "unknown field"},
		{"no targets", `{"targets": []}`, "no targets"},
		{"unnamed target", `{"targets": [{"asn": 1, "source": "x"}]}`, "has no name"},
		{"duplicate target", `{"targets": [{"name": "a"}, {"name": "a"}]}`, "duplicate target"},
		{"negative duration", `{"window": "-1h", "targets": [{"name": "a"}]}`, "negative window"},
		{"negative count", `{"min_traceroutes": -1, "targets": [{"name": "a"}]}`, "negative min_traceroutes"},
		// The tuning keys of earlier versions are gone: stripes and
		// fan-out follow GOMAXPROCS, and a config still setting one
		// fails loudly rather than running without it.
		{"removed shards", `{"shards": 4, "targets": [{"name": "a"}]}`, `unknown field "shards"`},
		{"removed workers", `{"workers": 2, "targets": [{"name": "a"}]}`, `unknown field "workers"`},
		{"removed max_concurrent", `{"max_concurrent": 8, "targets": [{"name": "a"}]}`, `unknown field "max_concurrent"`},
		{"removed startup_jitter", `{"startup_jitter": "5m", "targets": [{"name": "a"}]}`, `unknown field "startup_jitter"`},
		{"sub-second bin width", `{"bin_width": "500ms", "targets": [{"name": "a"}]}`, "whole number of seconds"},
		{"fractional bin width", `{"bin_width": "90.5s", "targets": [{"name": "a"}]}`, "whole number of seconds"},
		{"bad duration", `{"window": "fortnight", "targets": [{"name": "a"}]}`, "bad duration"},
		{"bad duration type", `{"window": true, "targets": [{"name": "a"}]}`, "string or number"},
		// Thresholds are checked with zeros filled from the paper's
		// 0.5/1/3 ms, at load rather than by every Classify.
		{"unordered thresholds", `{"thresholds": {"low": 5, "mild": 1, "severe": 3}, "targets": [{"name": "a"}]}`,
			"serve: thresholds: core: thresholds must satisfy 0 < Low < Mild < Severe, got {Low:5 Mild:1 Severe:3}"},
		{"low above default mild", `{"thresholds": {"low": 2}, "targets": [{"name": "a"}]}`,
			"serve: thresholds: core: thresholds must satisfy 0 < Low < Mild < Severe, got {Low:2 Mild:1 Severe:3}"},
		{"negative threshold", `{"thresholds": {"low": -1}, "targets": [{"name": "a"}]}`, "0 < Low < Mild < Severe"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestConfigDefaultsPreserveEngineZeros(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"targets": [{"name": "a", "asn": 1, "source": "x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Engine-semantic zeros must survive parsing untouched: checkpoint
	// resume relies on zero meaning "adopt the snapshot's value".
	if cfg.Window != 0 || cfg.BinWidth != 0 || cfg.MinTraceroutes != 0 || cfg.MaxLateness != 0 {
		t.Fatalf("engine-semantic fields defaulted: %+v", cfg)
	}
}

func TestReloadableFromFreezesEngineSemantics(t *testing.T) {
	base := func() *Config {
		cfg, err := ParseConfig([]byte(`{
			"http_addr": "127.0.0.1:0", "state_path": "s", "window": "96h",
			"bin_width": "30m", "min_traceroutes": 3, "max_lateness": "2h",
			"thresholds": {"low": 0.5},
			"targets": [{"name": "a", "asn": 1, "source": "x"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	old := base()

	if err := base().ReloadableFrom(old); err != nil {
		t.Fatalf("identical config not reloadable: %v", err)
	}

	// Operational fields reload freely.
	free := base()
	free.PollInterval = Duration(time.Hour)
	free.Targets = append(free.Targets, Target{Name: "b", ASN: 2, Source: "y"})
	if err := free.ReloadableFrom(old); err != nil {
		t.Fatalf("operational change rejected: %v", err)
	}
	// Thresholds compare with zeros filled in: leaving out low's default
	// and spelling out mild's changes no cut-off.
	same := base()
	same.Thresholds = ThresholdsConfig{Mild: 1}
	if err := same.ReloadableFrom(old); err != nil {
		t.Fatalf("reload to the same filled-in thresholds rejected: %v", err)
	}

	// Engine-semantic and bind-once fields are frozen.
	frozen := []struct {
		field  string
		mutate func(*Config)
	}{
		{"http_addr", func(c *Config) { c.HTTPAddr = "127.0.0.1:9999" }},
		{"window", func(c *Config) { c.Window = Duration(48 * time.Hour) }},
		{"bin_width", func(c *Config) { c.BinWidth = Duration(time.Hour) }},
		{"min_traceroutes", func(c *Config) { c.MinTraceroutes = 5 }},
		{"max_lateness", func(c *Config) { c.MaxLateness = Duration(time.Hour) }},
		{"thresholds", func(c *Config) { c.Thresholds.Severe = 10 }},
		{"state_path", func(c *Config) { c.StatePath = "other" }},
	}
	for _, tc := range frozen {
		t.Run(tc.field, func(t *testing.T) {
			next := base()
			tc.mutate(next)
			err := next.ReloadableFrom(old)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("err = %v, want mention of %q", err, tc.field)
			}
		})
	}
}

func TestDiffTargets(t *testing.T) {
	old := []Target{
		{Name: "keep", ASN: 1, Source: "k"},
		{Name: "change", ASN: 2, Source: "old"},
		{Name: "drop", ASN: 3, Source: "d"},
	}
	next := []Target{
		{Name: "zadd", ASN: 4, Source: "z"}, // list order must not matter
		{Name: "change", ASN: 2, Source: "new"},
		{Name: "keep", ASN: 1, Source: "k"},
		{Name: "add", ASN: 5, Source: "a"},
	}
	got := DiffTargets(old, next)
	want := TargetDiff{
		Added:   []Target{{Name: "add", ASN: 5, Source: "a"}, {Name: "zadd", ASN: 4, Source: "z"}},
		Removed: []Target{{Name: "drop", ASN: 3, Source: "d"}},
		Changed: []Target{{Name: "change", ASN: 2, Source: "new"}},
		Kept:    []Target{{Name: "keep", ASN: 1, Source: "k"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diff = %+v, want %+v", got, want)
	}
	// Initial start is the diff against nothing.
	boot := DiffTargets(nil, old)
	if len(boot.Added) != 3 || len(boot.Removed)+len(boot.Changed)+len(boot.Kept) != 0 {
		t.Fatalf("boot diff = %+v", boot)
	}
}

func TestClassifierLayersThresholdsOntoDefaults(t *testing.T) {
	cfg := &Config{Thresholds: ThresholdsConfig{Low: 0.25, Mild: 2, Severe: 8}}
	opts := cfg.classifier()
	if opts.Thresholds != (core.Thresholds{Low: 0.25, Mild: 2, Severe: 8}) {
		t.Fatalf("thresholds not applied: %+v", opts.Thresholds)
	}
	// A partial override keeps the paper's other cut-offs, and the
	// result passes the check core.Classify makes.
	partial, err := ParseConfig([]byte(`{"thresholds": {"severe": 4}, "targets": [{"name": "a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := partial.classifier().Thresholds; got != (core.Thresholds{Low: 0.5, Mild: 1, Severe: 4}) {
		t.Fatalf(`{"severe": 4} yields %+v, want {Low:0.5 Mild:1 Severe:4}`, got)
	}
	// The non-threshold knobs must stay at the paper defaults — a zero
	// MaxGapFrac would make stream.Options discard the whole classifier.
	if opts.MaxGapFrac == 0 {
		t.Fatal("MaxGapFrac zeroed: stream.Options would clobber the classifier")
	}
	zero := &Config{}
	if got := zero.classifier().Thresholds; got != core.DefaultThresholds() {
		t.Fatalf("zero thresholds yield %+v, want the paper defaults", got)
	}
}

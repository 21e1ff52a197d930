package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
)

// Duration is a time.Duration that unmarshals from JSON strings in
// time.ParseDuration syntax ("30m", "96h") or from bare nanosecond
// numbers, so config files stay human-readable.
type Duration time.Duration

// UnmarshalJSON parses either a duration string or a nanosecond number.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", v, err)
		}
		*d = Duration(parsed)
		return nil
	case float64:
		*d = Duration(v)
		return nil
	default:
		return fmt.Errorf("serve: duration must be a string or number, got %T", v)
	}
}

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Target is one monitored population: a named input stream attributed
// to an AS. Targets are diffed by Name across reloads — an unchanged
// (Name, ASN, Source) triple keeps its in-flight window untouched; a
// changed one is drained and restarted.
type Target struct {
	// Name identifies the target across reloads.
	Name string `json:"name"`
	// ASN attributes the target's results when the stream does not
	// carry attribution in-band (JSONL input; wire archives override).
	ASN bgp.ASN `json:"asn"`
	// Source locates the target's result stream; its meaning belongs to
	// the SourceOpener (cmd/lmserved opens it as a file path, the soak
	// harness as a key into its synthetic timelines).
	Source string `json:"source"`
}

// Config is the daemon's declarative configuration, loaded from a JSON
// file and hot-reloaded on SIGHUP or every PollInterval. Engine-semantic
// fields (Window, BinWidth, MinTraceroutes, MaxLateness, Thresholds)
// cannot change across a reload — they define the meaning of the
// in-flight window state — and neither can the fields bound once at
// startup (HTTPAddr, StatePath, Shards, Workers, MaxConcurrent); a
// reload that tries is rejected whole, keeping the running config.
// Targets, StartupJitter and PollInterval reload freely.
type Config struct {
	// HTTPAddr is the ops/API listen address; empty disables HTTP.
	HTTPAddr string `json:"http_addr,omitempty"`
	// StatePath is the engine checkpoint file; empty disables
	// checkpointing.
	StatePath string `json:"state_path,omitempty"`

	// Window is the sliding analysis window (default 15 days).
	Window Duration `json:"window,omitempty"`
	// BinWidth is the aggregation bin (default 30 minutes), a whole
	// number of seconds.
	BinWidth Duration `json:"bin_width,omitempty"`
	// MinTraceroutes is the per-bin sanity threshold (default 3).
	MinTraceroutes int `json:"min_traceroutes,omitempty"`
	// MaxLateness tolerates out-of-order arrivals (default 1 hour).
	MaxLateness Duration `json:"max_lateness,omitempty"`
	// Thresholds overrides the classifier's daily-amplitude cutoffs in
	// ms; the zero value selects the paper's defaults.
	Thresholds ThresholdsConfig `json:"thresholds,omitempty"`

	// Shards is the engine lock-stripe count (default GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Workers bounds classification fan-out (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// MaxConcurrent bounds how many targets may be inside the engine's
	// ingest path at once (default 4); see the scaling note in
	// DESIGN.md §16 — steady-state ingest capacity is
	// MaxConcurrent / cost(Observe), independent of target count.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// StartupJitter spreads target starts deterministically over
	// [0, StartupJitter) by target-name hash, so a restart never
	// thunders every source at once (default 0: start immediately).
	StartupJitter Duration `json:"startup_jitter,omitempty"`
	// PollInterval re-reads the config file this often; zero means
	// reload on SIGHUP only.
	PollInterval Duration `json:"poll_interval,omitempty"`

	// Targets are the monitored populations.
	Targets []Target `json:"targets"`
}

// withDefaults fills zero operational fields. Engine-semantic zeros are
// left alone — stream.Options applies the paper defaults, and a zero
// must stay zero for checkpoint resume to adopt the snapshot's values.
func (c *Config) withDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
}

// Validate rejects configs that cannot run: no targets, duplicate or
// unnamed targets, negative durations, or a bin width that is not a
// whole number of seconds.
func (c *Config) Validate() error {
	if len(c.Targets) == 0 {
		return errors.New("serve: config has no targets")
	}
	seen := make(map[string]bool, len(c.Targets))
	for i, t := range c.Targets {
		if t.Name == "" {
			return fmt.Errorf("serve: target %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("serve: duplicate target %q", t.Name)
		}
		seen[t.Name] = true
	}
	for name, d := range map[string]Duration{
		"window": c.Window, "bin_width": c.BinWidth, "max_lateness": c.MaxLateness,
		"startup_jitter": c.StartupJitter, "poll_interval": c.PollInterval,
	} {
		if d < 0 {
			return fmt.Errorf("serve: negative %s", name)
		}
	}
	// The engine keys bins by their start in unix seconds.
	if time.Duration(c.BinWidth)%time.Second != 0 {
		return fmt.Errorf("serve: bin_width %v is not a whole number of seconds", time.Duration(c.BinWidth))
	}
	if c.MinTraceroutes < 0 || c.Shards < 0 || c.Workers < 0 || c.MaxConcurrent < 0 {
		return errors.New("serve: negative count option")
	}
	return nil
}

// ParseConfig parses and validates a JSON config document. Unknown
// fields are rejected so a typo'd key fails loudly instead of silently
// running with a default.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	cfg := &Config{}
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("serve: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.withDefaults()
	return cfg, nil
}

// LoadConfig reads and parses the config file at path.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load config: %w", err)
	}
	return ParseConfig(data)
}

// ReloadableFrom reports whether c can replace old on a live daemon:
// engine-semantic fields must be identical, because the in-flight
// window state was built under them. A non-nil error names the first
// offending field.
func (c *Config) ReloadableFrom(old *Config) error {
	switch {
	case c.HTTPAddr != old.HTTPAddr:
		// The listener is bound once at startup; accepting a changed
		// address here would silently not take effect.
		return errors.New("serve: reload cannot change http_addr (restart required)")
	case c.Window != old.Window:
		return errors.New("serve: reload cannot change window (restart required)")
	case c.BinWidth != old.BinWidth:
		return errors.New("serve: reload cannot change bin_width (restart required)")
	case c.MinTraceroutes != old.MinTraceroutes:
		return errors.New("serve: reload cannot change min_traceroutes (restart required)")
	case c.MaxLateness != old.MaxLateness:
		return errors.New("serve: reload cannot change max_lateness (restart required)")
	case !c.Thresholds.equal(old.Thresholds):
		return errors.New("serve: reload cannot change thresholds (restart required)")
	case c.StatePath != old.StatePath:
		return errors.New("serve: reload cannot change state_path (restart required)")
	case c.Shards != old.Shards:
		return errors.New("serve: reload cannot change shards (restart required)")
	case c.Workers != old.Workers:
		// The monitor fixes its classification fan-out when it is built.
		return errors.New("serve: reload cannot change workers (restart required)")
	case c.MaxConcurrent != old.MaxConcurrent:
		return errors.New("serve: reload cannot change max_concurrent (restart required)")
	}
	return nil
}

// TargetDiff is the outcome of diffing two target lists by Name.
type TargetDiff struct {
	// Added targets start (with jitter) on reload.
	Added []Target
	// Removed targets are drained on reload.
	Removed []Target
	// Changed targets (same name, different ASN or Source) are drained
	// and restarted with the new definition.
	Changed []Target
	// Kept targets run on untouched — their in-flight windows are never
	// perturbed by a reload.
	Kept []Target
}

// DiffTargets computes the reload diff between two target lists. Output
// slices are sorted by name, so reload application order is
// deterministic.
func DiffTargets(old, next []Target) TargetDiff {
	prev := make(map[string]Target, len(old))
	for _, t := range old {
		prev[t.Name] = t
	}
	var d TargetDiff
	for _, t := range next {
		o, ok := prev[t.Name]
		switch {
		case !ok:
			d.Added = append(d.Added, t)
		case o != t:
			d.Changed = append(d.Changed, t)
		default:
			d.Kept = append(d.Kept, t)
		}
		delete(prev, t.Name)
	}
	for _, t := range prev {
		d.Removed = append(d.Removed, t)
	}
	for _, s := range [][]Target{d.Added, d.Removed, d.Changed, d.Kept} {
		sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	}
	return d
}

// ThresholdsConfig is the config-file form of the classifier cutoffs.
type ThresholdsConfig struct {
	Low    float64 `json:"low,omitempty"`
	Mild   float64 `json:"mild,omitempty"`
	Severe float64 `json:"severe,omitempty"`
}

// equal compares field-wise on float bits, so a NaN threshold compares
// like any other value instead of making a config unequal to itself.
func (t ThresholdsConfig) equal(o ThresholdsConfig) bool {
	return math.Float64bits(t.Low) == math.Float64bits(o.Low) &&
		math.Float64bits(t.Mild) == math.Float64bits(o.Mild) &&
		math.Float64bits(t.Severe) == math.Float64bits(o.Severe)
}

// isZero reports whether no threshold override is set.
func (t ThresholdsConfig) isZero() bool { return t.equal(ThresholdsConfig{}) }

// classifier builds the classifier options from the config's threshold
// overrides. The base is always the paper defaults — stream.Options
// replaces a zero-MaxGapFrac ClassifierOptions wholesale, so partial
// overrides must be layered onto a fully populated value.
func (c *Config) classifier() core.ClassifierOptions {
	opts := core.DefaultClassifierOptions()
	if !c.Thresholds.isZero() {
		opts.Thresholds = core.Thresholds{
			Low:    c.Thresholds.Low,
			Mild:   c.Thresholds.Mild,
			Severe: c.Thresholds.Severe,
		}
	}
	return opts
}

package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
)

// Survey persistence lets the expensive measurement step run once
// (lmexp -table headline -save dir) and the derived figures re-render
// from disk (lmexp -fig 3 -load dir) — the workflow the paper supports
// with its public results server.

// surveyFile names one period's file.
func surveyFile(dir, period string) string {
	return filepath.Join(dir, "survey-"+period+".json")
}

// SaveSurveys persists every survey of the set as JSON under dir.
func SaveSurveys(set *SurveySet, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range set.AllSurveys() {
		f, err := os.Create(surveyFile(dir, s.Period))
		if err != nil {
			return err
		}
		if err := s.WriteJSON(f); err != nil {
			_ = f.Close() // the write error is the one returned
			return fmt.Errorf("experiments: save %s: %w", s.Period, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadSurveys reads a persisted survey set from dir. The world is
// rebuilt (cheap, deterministic) so rank/geography joins still work;
// the measurement results come from disk.
func LoadSurveys(o Options, dir string) (*SurveySet, error) {
	o = o.withDefaults()
	cfg := scenario.DefaultConfig(o.Seed)
	cfg.ASes = o.WorldASes
	world, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	set := &SurveySet{World: world}
	load := func(period string) (*core.Survey, error) {
		f, err := os.Open(surveyFile(dir, period))
		if err != nil {
			return nil, err
		}
		defer ioutil.CloseQuiet(f)
		return core.ReadSurveyJSON(f)
	}
	for _, p := range scenario.LongitudinalPeriods() {
		s, err := load(p.Label)
		if err != nil {
			return nil, fmt.Errorf("experiments: load %s: %w", p.Label, err)
		}
		set.Longitudinal = append(set.Longitudinal, s)
	}
	covid, err := load(scenario.COVIDPeriod().Label)
	if err != nil {
		return nil, fmt.Errorf("experiments: load covid: %w", err)
	}
	set.COVID = covid
	return set, nil
}

package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// §5 of the paper flags that the aggregated verdict hides variability
// between probes: the classifier reports what the *majority* of probes
// see. BootstrapAmplitude quantifies that variability by resampling the
// probe population with replacement and re-running the aggregation +
// detection for each resample, yielding a confidence interval on the
// daily amplitude — and therefore on how solid a class boundary decision
// is for a given deployment size.

// BootstrapOptions configures BootstrapAmplitude.
type BootstrapOptions struct {
	// Iterations is the number of bootstrap resamples (default 200).
	Iterations int
	// Seed drives the resampling.
	Seed uint64
	// Classifier configures the detector for each resample. It reaches
	// Classify as set, and Classify gives each zero field its default.
	Classifier ClassifierOptions
}

// BootstrapResult summarises the resampled amplitude distribution.
type BootstrapResult struct {
	// Amplitude is the point estimate on the full population.
	Amplitude float64
	// Class is the point-estimate class.
	Class Class
	// CI90Low and CI90High bound the central 90% of the resampled
	// amplitudes.
	CI90Low, CI90High float64
	// ClassStability is the fraction of resamples whose class equals
	// the point-estimate class — low values mean the verdict hangs on
	// which probes happen to be deployed.
	ClassStability float64
	// Iterations actually classified (resamples that fail to classify
	// are skipped).
	Iterations int
}

// String renders the result compactly.
func (r *BootstrapResult) String() string {
	return fmt.Sprintf("%v, amp %.2f ms (90%% CI %.2f-%.2f), class stability %.0f%%",
		r.Class, r.Amplitude, r.CI90Low, r.CI90High, 100*r.ClassStability)
}

// BootstrapAmplitude resamples per-probe queuing-delay series with
// replacement and reports the resulting amplitude and class stability.
// perProbe must hold each probe's queuing-delay series (aligned, as
// produced by the §2.1 pipeline).
func BootstrapAmplitude(perProbe []*timeseries.Series, opts BootstrapOptions) (*BootstrapResult, error) {
	if len(perProbe) == 0 {
		return nil, errors.New("core: no probes to bootstrap")
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 200
	}

	classifyPopulation := func(pop []*timeseries.Series) (Classification, error) {
		agg, err := timeseries.AggregateMedian(pop)
		if err != nil {
			return Classification{}, err
		}
		return Classify(agg, opts.Classifier)
	}

	point, err := classifyPopulation(perProbe)
	if err != nil {
		return nil, err
	}

	rng := netsim.DerivedRand(opts.Seed, 0xb007)
	amps := make([]float64, 0, opts.Iterations)
	sameClass := 0
	resample := make([]*timeseries.Series, len(perProbe))
	for it := 0; it < opts.Iterations; it++ {
		for i := range resample {
			resample[i] = perProbe[rng.Intn(len(perProbe))]
		}
		cls, err := classifyPopulation(resample)
		if err != nil || math.IsNaN(cls.DailyAmplitude) {
			continue
		}
		amps = append(amps, cls.DailyAmplitude)
		if cls.Class == point.Class {
			sameClass++
		}
	}
	if len(amps) == 0 {
		return nil, errors.New("core: no bootstrap resample classified")
	}
	sort.Float64s(amps)
	lo := amps[int(float64(len(amps)-1)*0.05)]
	hi := amps[int(float64(len(amps)-1)*0.95)]
	return &BootstrapResult{
		Amplitude:      point.DailyAmplitude,
		Class:          point.Class,
		CI90Low:        lo,
		CI90High:       hi,
		ClassStability: float64(sameClass) / float64(len(amps)),
		Iterations:     len(amps),
	}, nil
}

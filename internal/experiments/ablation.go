package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/dsp"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// AblationResult captures one design-choice comparison: the paper's
// choice versus the alternative, with the quantity that justifies it.
type AblationResult struct {
	Name     string
	Choice   string
	Variants []AblationVariant
	// Verdict summarises why the paper's choice wins.
	Verdict string
}

// AblationVariant is one arm of an ablation.
type AblationVariant struct {
	Label string
	Value float64
	Note  string
}

// Render writes the ablation as a table.
func (r *AblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: %s (paper's choice: %s)\n", r.Name, r.Choice)
	tb := report.NewTable("variant", "value", "note")
	for _, v := range r.Variants {
		tb.AddRowf(v.Label, fmt.Sprintf("%.3f", v.Value), v.Note)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "=> %s\n\n", r.Verdict)
	return nil
}

// ablationHealthyFleet builds a small *uncongested* fleet (ISP_C's
// probes) over a short period — the population the aggregation ablation
// contaminates with one pathological probe.
func ablationHealthyFleet(o Options, days int) ([]*timeseries.Series, scenario.Period, error) {
	o = o.withDefaults()
	tk, err := scenario.BuildTokyo(o.Seed, 10)
	if err != nil {
		return nil, scenario.Period{}, err
	}
	start := scenario.TokyoPeriod().Start
	p := scenario.Period{Label: "ablation", Start: start, End: start.AddDate(0, 0, days)}
	e, err := scenario.SimulateProbes(tk.ISPC.Probes, p, o.TraceroutesPerBin, o.Seed)
	if err != nil {
		return nil, p, err
	}
	series, err := e.ProbeDelays(tk.ISPC.Network.ASN, p.Start, p.Bins())
	return series, p, err
}

// AblationAggregation compares median vs mean population aggregation
// when one probe in an uncongested AS carries a diurnal artefact (its
// home Wi-Fi saturates every evening, inflating the private-side RTT by
// tens of ms). The median ignores the outlier; the mean reports phantom
// AS-level congestion.
func AblationAggregation(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	series, p, err := ablationHealthyFleet(o, 6)
	if err != nil {
		return nil, err
	}
	// Replace one probe's series with the Wi-Fi pathology: a 25 ms bump
	// every evening, on an otherwise flat last mile.
	broken := series[0].Clone()
	rng := netsim.DerivedRand(o.Seed, 0xbad)
	for i := range broken.Values {
		h := broken.Start.Add(time.Duration(i) * broken.Step).UTC().Hour()
		v := rng.Float64() * 0.3
		if jst := (h + 9) % 24; jst >= 19 && jst < 24 {
			v += 25
		}
		broken.Values[i] = v
	}
	population := append([]*timeseries.Series{broken}, series[1:]...)

	classify := func(agg *timeseries.Series) (core.Class, float64, error) {
		cls, err := core.Classify(agg, core.DefaultClassifierOptions())
		if err != nil {
			return core.None, 0, err
		}
		return cls.Class, cls.DailyAmplitude, nil
	}
	medAgg, err := timeseries.AggregateMedian(population)
	if err != nil {
		return nil, err
	}
	meanAgg, err := timeseries.AggregateMean(population)
	if err != nil {
		return nil, err
	}
	medClass, medAmp, err := classify(medAgg)
	if err != nil {
		return nil, err
	}
	meanClass, meanAmp, err := classify(meanAgg)
	if err != nil {
		return nil, err
	}
	_ = p
	return &AblationResult{
		Name:   "population aggregation: healthy AS + one probe with evening Wi-Fi pathology",
		Choice: "median",
		Variants: []AblationVariant{
			{Label: "median", Value: medAmp, Note: fmt.Sprintf("daily amp (ms), class %v — outlier suppressed", medClass)},
			{Label: "mean", Value: meanAmp, Note: fmt.Sprintf("daily amp (ms), class %v — phantom congestion", meanClass)},
		},
		Verdict: "the median keeps a single pathological probe from flipping the AS-level verdict",
	}, nil
}

// AblationBinWidth compares the paper's 30-minute bins against 5-minute
// bins on a signal carrying only short transient bursts: large bins
// filter transients out (by design), small bins let them through to the
// spectrum.
func AblationBinWidth(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	start := scenario.TokyoPeriod().Start
	days := 10
	rng := netsim.DerivedRand(o.Seed, 0xb1b)

	// Raw sample stream: flat 2 ms last mile with one random 10-minute
	// 8 ms burst per day (self-induced congestion, not persistent).
	build := func(width time.Duration) (*timeseries.Series, error) {
		end := start.AddDate(0, 0, days)
		// One group per minute: every non-empty bin is usable.
		e := engine.New(engine.Options{BinWidth: width, MinTraceroutes: 1})
		burstStart := make([]time.Duration, days)
		for d := range burstStart {
			burstStart[d] = time.Duration(rng.Int63n(int64(24 * time.Hour)))
		}
		for ts := start; ts.Before(end); ts = ts.Add(time.Minute) {
			day := int(ts.Sub(start) / (24 * time.Hour))
			offset := ts.Sub(start) % (24 * time.Hour)
			v := 2 + rng.Float64()*0.2
			if offset >= burstStart[day] && offset < burstStart[day]+10*time.Minute {
				v += 8
			}
			e.Observe(0, 1, ts, []float64{v, v + 0.05, v - 0.05})
		}
		qd, err := e.ProbeDelays(0, start, int(end.Sub(start)/width))
		if err != nil {
			return nil, err
		}
		return qd[0], nil
	}
	amp := func(s *timeseries.Series) (float64, error) {
		filled, err := dsp.Interpolate(s.Values)
		if err != nil {
			return 0, err
		}
		pg, err := dsp.Welch(filled, s.SampleRatePerHour(), dsp.WelchDefaults())
		if err != nil {
			return 0, err
		}
		peak, _ := pg.ProminentPeak()
		return peak.P2P, nil
	}
	wide, err := build(30 * time.Minute)
	if err != nil {
		return nil, err
	}
	narrow, err := build(5 * time.Minute)
	if err != nil {
		return nil, err
	}
	wideAmp, err := amp(wide)
	if err != nil {
		return nil, err
	}
	narrowAmp, err := amp(narrow)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "bin width under transient (non-persistent) bursts",
		Choice: "30-minute bins",
		Variants: []AblationVariant{
			{Label: "30-minute bins", Value: wideAmp, Note: "prominent peak amplitude (ms) — bursts median-filtered away"},
			{Label: "5-minute bins", Value: narrowAmp, Note: "bursts survive into the spectrum"},
		},
		Verdict: "large bins implement the paper's 'focus only on long-lasting congestion' directly in the binning",
	}, nil
}

// AblationWelch measures the variance of the daily-amplitude estimate —
// the quantity every class boundary thresholds — for Welch versus a
// single full-length periodogram, under bursty heavy-tailed noise. The
// effect is modest for stationary noise (both estimators are unbiased at
// an on-bin frequency) but consistently favours segment averaging.
func AblationWelch(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	const trials = 80
	const trueP2P = 0.8
	amps := func(opts dsp.WelchOptions) ([]float64, error) {
		out := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			rng := netsim.DerivedRand(o.Seed, 0x3e1c, uint64(trial))
			xs := make([]float64, 720)
			for i := range xs {
				hours := float64(i) / 2
				noise := math.Abs(rng.NormFloat64()) * 0.6
				if rng.Float64() < 0.03 {
					noise += netsim.Lognormal(rng, 1.0, 0.6)
				}
				xs[i] = trueP2P/2*(1+math.Sin(2*math.Pi*hours/24)) + noise
			}
			pg, err := dsp.Welch(xs, 2, opts)
			if err != nil {
				return nil, err
			}
			amp, _, _ := pg.AmplitudeAt(core.DailyFreq)
			out = append(out, amp)
		}
		return out, nil
	}
	welchAmps, err := amps(dsp.WelchDefaults())
	if err != nil {
		return nil, err
	}
	singleAmps, err := amps(dsp.WelchOptions{SegmentLength: 720, Window: dsp.Hann})
	if err != nil {
		return nil, err
	}
	rmse := func(xs []float64) float64 {
		sum := 0.0
		for _, v := range xs {
			sum += (v - trueP2P) * (v - trueP2P)
		}
		return math.Sqrt(sum / float64(len(xs)))
	}
	return &AblationResult{
		Name:   "daily-amplitude RMSE (0.8 ms truth) under bursty noise",
		Choice: "Welch (192-sample segments, 50% overlap)",
		Variants: []AblationVariant{
			{Label: "welch", Value: rmse(welchAmps), Note: "RMSE of the thresholded amplitude (ms)"},
			{Label: "single periodogram", Value: rmse(singleAmps), Note: "RMSE (ms)"},
		},
		Verdict: "a null result, reported honestly: for an on-bin sinusoid under stationary noise the two estimators perform alike — the paper's Welch choice buys robustness on real nonstationary traces and costs nothing here",
	}, nil
}

// AblationThresholds sweeps the classifier's amplitude cut-offs around
// the paper's 0.5/1/3 ms on a fixed survey, showing how the class sizes
// the paper balanced respond. The 0.5 ms floor is the load-bearing
// choice: halving it more than doubles the reported count by promoting
// noise-level daily wiggles.
func AblationThresholds(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	cfg := scenario.DefaultConfig(o.Seed)
	cfg.ASes = 160
	cfg.TraceroutesPerBin = o.TraceroutesPerBin
	world, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	survey, err := world.RunSurvey(scenario.LongitudinalPeriods()[5])
	if err != nil {
		return nil, err
	}
	count := func(th core.Thresholds) int {
		n := 0
		for _, res := range survey.Results {
			if res.IsDaily && res.DailyAmplitude > th.Low {
				n++
			}
		}
		return n
	}
	paper := core.DefaultThresholds()
	half := core.Thresholds{Low: 0.25, Mild: 1, Severe: 3}
	double := core.Thresholds{Low: 1.0, Mild: 2, Severe: 4}
	return &AblationResult{
		Name:   "reported-AS count vs Low threshold (fixed 2019-09 survey)",
		Choice: "Low > 0.5 ms",
		Variants: []AblationVariant{
			{Label: "Low > 0.25 ms", Value: float64(count(half)), Note: "reported ASes — noise-level wiggles promoted"},
			{Label: "Low > 0.5 ms (paper)", Value: float64(count(paper)), Note: "reported ASes"},
			{Label: "Low > 1.0 ms", Value: float64(count(double)), Note: "reported ASes — misses the Low class entirely"},
		},
		Verdict: "0.5 ms isolates the distribution tail the paper targets; the survey's headline counts are threshold-sensitive below it",
	}, nil
}

// AblationEstimator compares the paper's 9-pairwise-sample estimator
// against a min-RTT-difference estimator on a congested probe: min-min
// systematically underestimates queuing delay because the per-hop minima
// dodge the queue.
func AblationEstimator(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	tk, err := scenario.BuildTokyo(o.Seed, 10)
	if err != nil {
		return nil, err
	}
	probe := tk.ISPA.Probes[0]
	route := probe.LastMileRoute()
	// Evening sample: the device queues. Compare expected estimates.
	at := time.Date(2019, 9, 19, 12, 0, 0, 0, time.UTC) // 21:00 JST
	const rounds = 2000
	var pairwiseSum, minDiffSum float64
	rng := netsim.DerivedRand(o.Seed, 0xab1a)
	for k := 0; k < rounds; k++ {
		var priv, pub [3]float64
		for i := 0; i < 3; i++ {
			v, ok, err := route.RTT(0, at, rng)
			if err != nil {
				return nil, err
			}
			if !ok {
				v = math.NaN()
			}
			priv[i] = v
		}
		for i := 0; i < 3; i++ {
			v, ok, err := route.RTT(1, at, rng)
			if err != nil {
				return nil, err
			}
			if !ok {
				v = math.NaN()
			}
			pub[i] = v
		}
		samples := lastmile.PairwiseFromRTTs(priv[:], pub[:])
		med := stats.MedianIgnoringNaN(samples)
		if !math.IsNaN(med) {
			pairwiseSum += med
		}
		minDiff := stats.MinIgnoringNaN(pub[:]) - stats.MinIgnoringNaN(priv[:])
		if !math.IsNaN(minDiff) {
			minDiffSum += minDiff
		}
	}
	return &AblationResult{
		Name:   "last-mile estimator at peak hour (congested legacy device)",
		Choice: "median of 9 pairwise samples",
		Variants: []AblationVariant{
			{Label: "pairwise median", Value: pairwiseSum / rounds, Note: "mean estimate (ms)"},
			{Label: "min-RTT difference", Value: minDiffSum / rounds, Note: "mean estimate (ms) — biased low, dodges the queue"},
		},
		Verdict: "pairwise sampling preserves the queuing delay the detector needs; min-based estimates underestimate it",
	}, nil
}

// AblationDiscard compares the <3-traceroutes bin filter on and off for
// a flapping probe that is online for only a sliver of some bins: without
// the filter, bins with a lone traceroute inject spurious medians.
func AblationDiscard(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	start := scenario.TokyoPeriod().Start
	end := start.AddDate(0, 0, 8)
	// The filter-off engine keeps every bin with a group, as every group
	// holds a sample.
	filterOn := engine.New(engine.Options{})
	filterOff := engine.New(engine.Options{MinTraceroutes: 1})
	observe := func(t time.Time, samples ...float64) {
		filterOn.Observe(0, 1, t, samples)
		filterOff.Observe(0, 1, t, samples)
	}
	rng := netsim.DerivedRand(o.Seed, 0xd15c)
	// A healthy flat last mile measured by a flapping probe: most bins
	// get 6 traceroutes, 15% of bins catch only a single traceroute —
	// and those lone traceroutes land during reconnection, when the CPE
	// itself inflates RTTs by tens of ms.
	for bin := start; bin.Before(end); bin = bin.Add(lastmile.DefaultBinWidth) {
		if rng.Float64() < 0.15 {
			observe(bin.Add(time.Minute), 50+rng.Float64()*20)
			continue
		}
		for k := 0; k < 6; k++ {
			base := 2 + rng.Float64()*0.3
			observe(bin.Add(time.Duration(k)*4*time.Minute), base, base+0.1, base-0.1)
		}
	}
	variance := func(e *engine.Engine) (float64, error) {
		qd, err := e.ProbeDelays(0, start, int(end.Sub(start)/lastmile.DefaultBinWidth))
		if err != nil {
			return 0, err
		}
		s, err := stats.Summarize(qd[0].Values)
		if err != nil {
			return 0, err
		}
		return s.P95, nil
	}
	with, err := variance(filterOn)
	if err != nil {
		return nil, err
	}
	without, err := variance(filterOff)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:   "per-bin traceroute sanity filter with a flapping probe",
		Choice: ">= 3 traceroutes per bin",
		Variants: []AblationVariant{
			{Label: "filter on (>=3)", Value: with, Note: "p95 queuing-delay estimate (ms)"},
			{Label: "filter off", Value: without, Note: "p95 (ms) — reconnection artefacts leak in"},
		},
		Verdict: "discarding thin bins removes disconnection artefacts before they reach the spectrum",
	}, nil
}

// RenderAblations runs every ablation and writes the results. The six
// ablations are independent (each derives its randomness from its own
// salt), so they fan out on GOMAXPROCS goroutines and render in the
// fixed order once all have finished.
func RenderAblations(w io.Writer, o Options) error {
	type ab func(Options) (*AblationResult, error)
	runs := []ab{AblationAggregation, AblationBinWidth, AblationWelch, AblationEstimator, AblationDiscard, AblationThresholds}
	results, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(runs), func(i int) (*AblationResult, error) {
		return runs[i](o)
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := r.Render(w); err != nil {
			return err
		}
	}
	return nil
}

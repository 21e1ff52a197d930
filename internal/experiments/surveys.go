package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"github.com/last-mile-congestion/lastmile/internal/apnic"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
)

// SurveySet is the expensive shared input of Fig. 3, Fig. 4 and the
// headline table: the full survey world measured over the six
// longitudinal periods and the COVID period.
type SurveySet struct {
	World        *scenario.World
	Longitudinal []*core.Survey
	COVID        *core.Survey
}

// RunSurveys builds the world and runs all seven surveys. The periods
// share one immutable world and every survey's draws are keyed by
// (seed, ASN, period), so the periods fan out on GOMAXPROCS goroutines
// with output identical to the serial run.
func RunSurveys(o Options) (*SurveySet, error) {
	o = o.withDefaults()
	cfg := scenario.DefaultConfig(o.Seed)
	cfg.ASes = o.WorldASes
	cfg.TraceroutesPerBin = o.TraceroutesPerBin
	world, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	longitudinal := scenario.LongitudinalPeriods()
	periods := make([]scenario.Period, 0, len(longitudinal)+1)
	periods = append(periods, longitudinal...)
	periods = append(periods, scenario.COVIDPeriod())
	surveys, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(periods), func(i int) (*core.Survey, error) {
		s, err := world.RunSurvey(periods[i])
		if err != nil {
			return nil, fmt.Errorf("survey %s: %w", periods[i].Label, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	n := len(longitudinal)
	return &SurveySet{
		World:        world,
		Longitudinal: surveys[:n:n],
		COVID:        surveys[n],
	}, nil
}

// AllSurveys returns the longitudinal surveys plus the COVID one.
func (s *SurveySet) AllSurveys() []*core.Survey {
	out := make([]*core.Survey, 0, len(s.Longitudinal)+1)
	out = append(out, s.Longitudinal...)
	return append(out, s.COVID)
}

// septemberSurvey returns the September 2019 survey.
func (s *SurveySet) septemberSurvey() *core.Survey {
	for _, sv := range s.Longitudinal {
		if sv.Period == "2019-09" {
			return sv
		}
	}
	return s.Longitudinal[len(s.Longitudinal)-1]
}

// Fig3Result distributes the detector's two markers across all monitored
// ASes per period: the prominent frequency (top plot) and the daily
// peak-to-peak amplitude (bottom plot).
type Fig3Result struct {
	Periods []string
	// PeakFreqs[i] are the prominent frequencies (cycles/hour) of all
	// ASes in period i, sorted ascending.
	PeakFreqs [][]float64
	// DailyAmps[i] are the daily amplitudes (ms) of the ASes whose
	// prominent component is daily, sorted ascending — Fig. 3 bottom
	// distributes exactly this subset.
	DailyAmps [][]float64
	// AmpSplit is the fraction of daily-prominent ASes whose amplitude
	// falls in the paper's four bands (<0.5, 0.5–1, 1–3, >3 ms),
	// averaged over periods. The paper reports ≈83/7/6/4.
	AmpSplit [4]float64
	// DailyProminentFrac is the average fraction of ASes whose
	// prominent component is the daily bin (the paper: the majority).
	DailyProminentFrac float64
}

// Fig3From computes Figure 3 from the longitudinal surveys.
func Fig3From(set *SurveySet) *Fig3Result {
	nPeriods := len(set.Longitudinal)
	r := &Fig3Result{
		Periods:   make([]string, 0, nPeriods),
		PeakFreqs: make([][]float64, 0, nPeriods),
		DailyAmps: make([][]float64, 0, nPeriods),
	}
	var split [4]float64
	dailyFrac := 0.0
	for _, s := range set.Longitudinal {
		freqs := make([]float64, 0, s.Len())
		amps := make([]float64, 0, s.Len())
		var counts [4]int
		for _, res := range s.Results {
			if !math.IsNaN(res.Peak.Freq) {
				freqs = append(freqs, res.Peak.Freq)
			}
			if !res.IsDaily || math.IsNaN(res.DailyAmplitude) {
				continue
			}
			amps = append(amps, res.DailyAmplitude)
			switch {
			case res.DailyAmplitude <= 0.5:
				counts[0]++
			case res.DailyAmplitude <= 1:
				counts[1]++
			case res.DailyAmplitude <= 3:
				counts[2]++
			default:
				counts[3]++
			}
		}
		sort.Float64s(freqs)
		sort.Float64s(amps)
		r.Periods = append(r.Periods, s.Period)
		r.PeakFreqs = append(r.PeakFreqs, freqs)
		r.DailyAmps = append(r.DailyAmps, amps)
		if len(amps) > 0 {
			for i := range counts {
				split[i] += float64(counts[i]) / float64(len(amps))
			}
		}
		dailyFrac += float64(len(amps)) / float64(s.Len())
	}
	n := float64(len(set.Longitudinal))
	for i := range split {
		r.AmpSplit[i] = split[i] / n
	}
	r.DailyProminentFrac = dailyFrac / n
	return r
}

// Render writes the Fig. 3 view.
func (r *Fig3Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 3 — prominent frequency and daily amplitude across monitored ASes")
	tb := report.NewTable("period", "ASes", "daily-prominent", "freq CDF p25/p50/p75 (c/h)", "amp CDF p50/p90/p99 (ms)")
	for i, period := range r.Periods {
		freqs, amps := r.PeakFreqs[i], r.DailyAmps[i]
		tb.AddRowf(period, len(freqs),
			fmt.Sprintf("%.0f%%", 100*fracAtDaily(freqs)),
			fmt.Sprintf("%.3f/%.3f/%.3f", q(freqs, 0.25), q(freqs, 0.5), q(freqs, 0.75)),
			fmt.Sprintf("%.2f/%.2f/%.2f", q(amps, 0.5), q(amps, 0.9), q(amps, 0.99)))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nDaily amplitude split (<0.5 / 0.5-1 / 1-3 / >3 ms): %.0f%% / %.0f%% / %.0f%% / %.0f%%  (paper: 83/7/6/4)\n",
		100*r.AmpSplit[0], 100*r.AmpSplit[1], 100*r.AmpSplit[2], 100*r.AmpSplit[3])
	fmt.Fprintf(w, "ASes with prominent daily component: %.0f%% (paper: the majority)\n\n", 100*r.DailyProminentFrac)
	return nil
}

// fracAtDaily returns the fraction of sorted frequencies within half a
// Welch bin of the daily frequency.
func fracAtDaily(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	const tol = 1.0 / 96 / 2 // half of the 192-sample bin width at 2/h
	n := 0
	for _, f := range sorted {
		if f > core.DailyFreq-tol && f < core.DailyFreq+tol {
			n++
		}
	}
	return float64(n) / float64(len(sorted))
}

// q returns the type-7 quantile of a sorted slice.
func q(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := p * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Fig4Result is the classification breakdown by APNIC rank bucket for
// September 2019 and April 2020.
type Fig4Result struct {
	Sep2019, Apr2020 *core.BucketBreakdown
}

// Fig4From computes Figure 4 from the survey set.
func Fig4From(set *SurveySet) *Fig4Result {
	return &Fig4Result{
		Sep2019: core.BreakdownByBucket(set.septemberSurvey(), set.World.Ranking),
		Apr2020: core.BreakdownByBucket(set.COVID, set.World.Ranking),
	}
}

// Render writes the Fig. 4 view.
func (r *Fig4Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 4 — classification breakdown by APNIC eyeball rank (percent of bucket)")
	for _, bb := range []*core.BucketBreakdown{r.Sep2019, r.Apr2020} {
		fmt.Fprintf(w, "\n%s:\n", bb.Period)
		tb := report.NewTable("bucket", "ASes", "Severe%", "Mild%", "Low%", "None%")
		for b := apnic.Bucket1to10; b < apnic.NumBuckets; b++ {
			tb.AddRowf(b.String(), bb.Totals[b],
				fmt.Sprintf("%.1f", bb.Percent(b, core.Severe)),
				fmt.Sprintf("%.1f", bb.Percent(b, core.Mild)),
				fmt.Sprintf("%.1f", bb.Percent(b, core.Low)),
				fmt.Sprintf("%.1f", bb.Percent(b, core.None)))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

// HeadlineResult collects the §3 survey numbers.
type HeadlineResult struct {
	// MonitoredASes is the September 2019 monitored count.
	MonitoredASes int
	// NonePct is the average share of ASes classified None (paper ≈90%).
	NonePct float64
	// AvgReported is the mean reported-AS count per longitudinal period
	// (paper ≈47).
	AvgReported float64
	// ReportedAtLeastHalf counts ASes reported in ≥3 of the 6 periods
	// (paper: 36).
	ReportedAtLeastHalf int
	// ReportedSep2019 and ReportedApr2020 are the per-period reported
	// counts around the COVID comparison (paper: 45 → 70).
	ReportedSep2019, ReportedApr2020 int
	// COVIDIncreasePct is the relative growth (paper ≈+55%).
	COVIDIncreasePct float64
	// CountriesReported / CountriesSevere count countries with at least
	// one reported / Severe AS across 2018–2019 (paper: 53 and 23 of
	// 98).
	CountriesReported, CountriesSevere int
	// JPSevereShare and USSevereShare are national shares of all Severe
	// reports over 2018–2019 (paper: 18% and 8%).
	JPSevereShare, USSevereShare float64
	// JPTop10Reported and JPTop10Constant: of the 10 highest-ranked
	// monitored Japanese ASes, how many were reported at least once /
	// in at least half of the periods (paper: 5 and 3).
	JPTop10Reported, JPTop10Constant int
}

// HeadlineFrom computes the headline numbers from the survey set.
func HeadlineFrom(set *SurveySet) *HeadlineResult {
	r := &HeadlineResult{}
	sep := set.septemberSurvey()
	r.MonitoredASes = sep.Len()

	nonePct, avgRep := 0.0, 0.0
	for _, s := range set.Longitudinal {
		counts := s.CountByClass()
		nonePct += float64(counts[core.None]) / float64(s.Len())
		avgRep += float64(len(s.ReportedASes()))
	}
	n := float64(len(set.Longitudinal))
	r.NonePct = 100 * nonePct / n
	r.AvgReported = avgRep / n
	r.ReportedAtLeastHalf = core.ReportedAtLeast(set.Longitudinal, (len(set.Longitudinal)+1)/2)

	r.ReportedSep2019 = len(sep.ReportedASes())
	r.ReportedApr2020 = len(set.COVID.ReportedASes())
	if r.ReportedSep2019 > 0 {
		r.COVIDIncreasePct = 100 * float64(r.ReportedApr2020-r.ReportedSep2019) / float64(r.ReportedSep2019)
	}

	gb := core.BreakdownByCountry(set.Longitudinal, set.World.Ranking)
	r.CountriesReported, r.CountriesSevere = gb.CountriesWithReports()
	r.JPSevereShare = 100 * gb.SevereShare("JP")
	r.USSevereShare = 100 * gb.SevereShare("US")

	// Top-10 monitored Japanese ASes by APNIC rank.
	var jpASNs []struct {
		asn  int
		rank int
	}
	for _, a := range set.World.ASes {
		if a.Network.CC != "JP" {
			continue
		}
		rank, ok := set.World.Ranking.Rank(a.Network.ASN)
		if !ok {
			continue
		}
		jpASNs = append(jpASNs, struct {
			asn  int
			rank int
		}{int(a.Network.ASN), rank})
	}
	sort.Slice(jpASNs, func(i, j int) bool { return jpASNs[i].rank < jpASNs[j].rank })
	if len(jpASNs) > 10 {
		jpASNs = jpASNs[:10]
	}
	churn := core.Churn(set.Longitudinal)
	for _, jp := range jpASNs {
		c := churn[toASN(uint32(jp.asn))]
		if c >= 1 {
			r.JPTop10Reported++
		}
		if c >= (len(set.Longitudinal)+1)/2 {
			r.JPTop10Constant++
		}
	}
	return r
}

// Render writes the headline table with the paper's values alongside.
func (r *HeadlineResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Headline survey numbers (§3)")
	tb := report.NewTable("metric", "measured", "paper")
	tb.AddRowf("monitored ASes (2019-09)", r.MonitoredASes, "646 (total)")
	tb.AddRowf("ASes classified None", fmt.Sprintf("%.0f%%", r.NonePct), "~90%")
	tb.AddRowf("avg reported ASes per period", fmt.Sprintf("%.1f", r.AvgReported), "47")
	tb.AddRowf("ASes reported >= half of periods", r.ReportedAtLeastHalf, "36")
	tb.AddRowf("reported ASes 2019-09", r.ReportedSep2019, "45")
	tb.AddRowf("reported ASes 2020-04", r.ReportedApr2020, "70")
	tb.AddRowf("COVID increase", fmt.Sprintf("%+.0f%%", r.COVIDIncreasePct), "+55%")
	tb.AddRowf("countries with >=1 report", r.CountriesReported, "53")
	tb.AddRowf("countries with >=1 Severe", r.CountriesSevere, "23")
	tb.AddRowf("JP share of Severe reports", fmt.Sprintf("%.0f%%", r.JPSevereShare), "18%")
	tb.AddRowf("US share of Severe reports", fmt.Sprintf("%.0f%%", r.USSevereShare), "8%")
	tb.AddRowf("JP top-10 ASes reported >=once", r.JPTop10Reported, "5")
	tb.AddRowf("JP top-10 ASes constantly reported", r.JPTop10Constant, "3")
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

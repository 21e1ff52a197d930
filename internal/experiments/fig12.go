package experiments

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"runtime"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/dsp"
	"github.com/last-mile-congestion/lastmile/internal/isp"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// Fig. 1's two example networks: a large German eyeball with stable
// last-mile latency, and a large American eyeball with a small but
// persistent diurnal pattern that deepens under the April 2020 lockdown.
const (
	ispDESeverity = isp.Severity(0.04)
	ispUSSeverity = isp.Severity(0.285)
)

// PeriodProfile is one measurement period's aggregated delay view.
type PeriodProfile struct {
	// Period labels the measurement period.
	Period string
	// Probes is the number of contributing probes.
	Probes int
	// Signal is the aggregated queuing delay over the whole period.
	Signal *timeseries.Series
	// Weekly is the Monday-to-Sunday fold of Signal (336 30-minute
	// bins), the x-axis of Fig. 1.
	Weekly []float64
}

// Fig1Result holds the weekly delay profiles of both example ISPs across
// the seven measurement periods.
type Fig1Result struct {
	DE, US []PeriodProfile
}

// fig1Network builds one of the example networks. covidSensitivity
// overrides the archetype default: ISP_US sits in a region whose lockdown
// shifted proportionally more traffic onto residential access.
func fig1Network(name string, asn uint32, cc string, utc float64, sev isp.Severity, covidSensitivity float64, v4, v6 string) (*isp.Network, error) {
	cfg := isp.NewEyeball(name, toASN(asn), cc, utc,
		netip.MustParsePrefix(v4), netip.MustParsePrefix(v6), sev)
	cfg.COVIDSensitivity = covidSensitivity
	return isp.New(cfg)
}

// runFleetPeriods measures one network's fleet over the given periods,
// fanning the periods out on GOMAXPROCS goroutines. Each period builds
// its own devices and probes from period-keyed seeds, so the profiles
// are identical at any GOMAXPROCS.
func runFleetPeriods(network *isp.Network, o Options, idBase int, periods []scenario.Period) ([]PeriodProfile, error) {
	return parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(periods), func(i int) (PeriodProfile, error) {
		p := periods[i]
		devices := network.BuildDevices(netsim.MixSeed(o.Seed, uint64(network.ASN), scenario.PeriodIndex(p)), p.COVIDShift)
		n := scenario.FleetSizeFor(o.FleetSize, p)
		probes, err := scenario.BuildFleet(network, devices, n, idBase, o.Seed)
		if err != nil {
			return PeriodProfile{}, err
		}
		res, err := scenario.SimulatePopulationDelay(probes, p, o.TraceroutesPerBin, o.Seed)
		if err != nil {
			return PeriodProfile{}, err
		}
		weekly, err := timeseries.DayHourProfile(res.Signal)
		if err != nil {
			return PeriodProfile{}, err
		}
		return PeriodProfile{
			Period: p.Label,
			Probes: res.Probes,
			Signal: res.Signal,
			Weekly: weekly,
		}, nil
	})
}

// Fig1 reproduces Figure 1: one week of aggregated last-mile queuing
// delay for the German and American example ISPs across all seven
// measurement periods.
func Fig1(o Options) (*Fig1Result, error) {
	o = o.withDefaults()
	de, err := fig1Network("ISP_DE", 3320, "DE", 1, ispDESeverity, 1, "11.1.0.0/16", "2001:db8:de00::/48")
	if err != nil {
		return nil, err
	}
	us, err := fig1Network("ISP_US", 7922, "US", -5, ispUSSeverity, 1.05, "11.2.0.0/16", "2001:db8:a500::/48")
	if err != nil {
		return nil, err
	}
	periods := scenario.AllPeriods()
	deProfiles, err := runFleetPeriods(de, o, 100000, periods)
	if err != nil {
		return nil, err
	}
	usProfiles, err := runFleetPeriods(us, o, 200000, periods)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{DE: deProfiles, US: usProfiles}, nil
}

// Render writes the Fig. 1 view: per ISP and period, the probe count,
// the weekly delay envelope as a sparkline, and peak statistics.
func (r *Fig1Result) Render(w io.Writer) error {
	render := func(name string, profiles []PeriodProfile) error {
		fmt.Fprintf(w, "%s — one week of aggregated last-mile queuing delay (ms)\n", name)
		tb := report.NewTable("period", "probes", "max", "p95", "Mon..Sun (sparkline)")
		for _, p := range profiles {
			max, p95 := profileStats(p.Weekly)
			tb.AddRowf(p.Period, p.Probes,
				fmt.Sprintf("%.2f", max), fmt.Sprintf("%.2f", p95),
				report.Sparkline(report.Downsample(p.Weekly, 56), 2.5))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	if err := render("ISP_DE", r.DE); err != nil {
		return err
	}
	return render("ISP_US", r.US)
}

// PeriodogramView is one periodogram of Fig. 2.
type PeriodogramView struct {
	Period string
	// Freqs are in cycles per hour; P2P is the average peak-to-peak
	// amplitude (ms) per bin.
	Freqs, P2P []float64
	// DailyAmplitude is the amplitude at 1/24 cycles per hour.
	DailyAmplitude float64
	// DailyIsProminent reports whether the daily bin is the spectrum's
	// prominent peak.
	DailyIsProminent bool
}

// Fig2Result holds the Welch periodograms of the Fig. 1 signals.
type Fig2Result struct {
	DE, US []PeriodogramView
}

// Fig2 reproduces Figure 2: Welch periodograms of the Fig. 1 aggregated
// delays, normalised to read peak-to-peak amplitude directly.
func Fig2(o Options) (*Fig2Result, error) {
	f1, err := Fig1(o)
	if err != nil {
		return nil, err
	}
	return fig2From(f1)
}

// Fig2From computes Fig. 2 from an existing Fig. 1 result, avoiding the
// duplicate simulation when both figures are produced together.
func Fig2From(f1 *Fig1Result) (*Fig2Result, error) { return fig2From(f1) }

func fig2From(f1 *Fig1Result) (*Fig2Result, error) {
	views := func(profiles []PeriodProfile) ([]PeriodogramView, error) {
		var out []PeriodogramView
		for _, p := range profiles {
			filled, err := dsp.Interpolate(p.Signal.Values)
			if err != nil {
				return nil, err
			}
			pg, err := dsp.Welch(filled, p.Signal.SampleRatePerHour(), dsp.WelchDefaults())
			if err != nil {
				return nil, err
			}
			amp, dailyBin, _ := pg.AmplitudeAt(core.DailyFreq)
			peak, _ := pg.ProminentPeak()
			out = append(out, PeriodogramView{
				Period:           p.Period,
				Freqs:            pg.Freqs,
				P2P:              pg.P2P,
				DailyAmplitude:   amp,
				DailyIsProminent: peak.Bin == dailyBin,
			})
		}
		return out, nil
	}
	de, err := views(f1.DE)
	if err != nil {
		return nil, err
	}
	us, err := views(f1.US)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{DE: de, US: us}, nil
}

// Render writes the Fig. 2 view.
func (r *Fig2Result) Render(w io.Writer) error {
	render := func(name string, views []PeriodogramView) error {
		fmt.Fprintf(w, "%s — Welch periodogram, y = avg peak-to-peak amplitude (ms)\n", name)
		tb := report.NewTable("period", "daily amp", "daily prominent", "spectrum (DC..Nyquist)")
		for _, v := range views {
			tb.AddRowf(v.Period,
				fmt.Sprintf("%.2f", v.DailyAmplitude),
				fmt.Sprintf("%v", v.DailyIsProminent),
				report.Sparkline(report.Downsample(v.P2P[1:], 48), 1.2))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	if err := render("ISP_DE", r.DE); err != nil {
		return err
	}
	return render("ISP_US", r.US)
}

// profileStats returns max and p95 of the non-NaN weekly values.
func profileStats(weekly []float64) (max, p95 float64) {
	s, err := stats.Summarize(weekly)
	if err != nil {
		return 0, 0
	}
	return s.Max, s.P95
}

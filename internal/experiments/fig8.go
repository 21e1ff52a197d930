package experiments

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"runtime"

	"github.com/last-mile-congestion/lastmile/internal/isp"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// Fig8Result compares ISP_D's probes against its datacenter anchor over
// the four periods of Appendix B.
type Fig8Result struct {
	Periods []string
	// ProbeWeekly and AnchorWeekly are Monday-to-Sunday delay folds per
	// period.
	ProbeWeekly, AnchorWeekly [][]float64
	ProbeCounts               []int
}

// fig8Periods are the Appendix B measurement periods.
func fig8Periods() []scenario.Period {
	all := scenario.AllPeriods()
	return []scenario.Period{all[3], all[4], all[5], all[6]} // 2019-03..2020-04
}

// Fig8 reproduces Figure 8: ISP_D relies on the legacy network, so its
// residential probes see peak-hour queuing while its anchor — in a
// datacenter, off the legacy plant — stays flat.
func Fig8(o Options) (*Fig8Result, error) {
	o = o.withDefaults()
	v4 := netip.MustParsePrefix("11.3.0.0/16")
	v6 := netip.MustParsePrefix("2001:db8:d400::/48")
	broadband, err := isp.New(isp.NewLegacyPPPoE("ISP_D", toASN(65104), "JP", 9, v4, v6, 0.90))
	if err != nil {
		return nil, err
	}
	dcNet, err := isp.New(isp.NewDatacenter("ISP_D_dc", toASN(65104), "JP", 9, v4, v6))
	if err != nil {
		return nil, err
	}

	// Per-period work fans out; rows come back in period order.
	type fig8Row struct {
		probeWeekly, anchorWeekly []float64
		probes                    int
	}
	periods := fig8Periods()
	rows, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(periods), func(i int) (fig8Row, error) {
		p := periods[i]
		seed := netsim.MixSeed(o.Seed, uint64(broadband.ASN), scenario.PeriodIndex(p))
		devices := broadband.BuildDevices(seed, p.COVIDShift)
		// 6 probes in 2019, 7 in 2020-04, as in the figure legend.
		n := 6
		if p.COVIDShift > 0 {
			n = 7
		}
		probes, err := scenario.BuildFleet(broadband, devices, n, 300000, o.Seed)
		if err != nil {
			return fig8Row{}, err
		}
		res, err := scenario.SimulatePopulationDelay(probes, p, o.TraceroutesPerBin, o.Seed)
		if err != nil {
			return fig8Row{}, err
		}
		probeWeekly, err := timeseries.DayHourProfile(res.Signal)
		if err != nil {
			return fig8Row{}, err
		}

		anchorDevs := dcNet.BuildDevices(seed, p.COVIDShift)
		anchors, err := scenario.BuildFleet(dcNet, anchorDevs, 1, 310000, o.Seed)
		if err != nil {
			return fig8Row{}, err
		}
		anchors[0].IsAnchor = true
		anchors[0].Availability = 1
		anchor, err := scenario.SimulateProbes(anchors, p, o.TraceroutesPerBin, o.Seed)
		if err != nil {
			return fig8Row{}, err
		}
		anchorQD, err := anchor.ProbeDelays(anchors[0].ASN, p.Start, p.Bins())
		if err != nil {
			return fig8Row{}, err
		}
		anchorWeekly, err := timeseries.DayHourProfile(anchorQD[0])
		if err != nil {
			return fig8Row{}, err
		}
		return fig8Row{probeWeekly: probeWeekly, anchorWeekly: anchorWeekly, probes: res.Probes}, nil
	})
	if err != nil {
		return nil, err
	}

	r := &Fig8Result{}
	for i, row := range rows {
		r.Periods = append(r.Periods, periods[i].Label)
		r.ProbeWeekly = append(r.ProbeWeekly, row.probeWeekly)
		r.AnchorWeekly = append(r.AnchorWeekly, row.anchorWeekly)
		r.ProbeCounts = append(r.ProbeCounts, row.probes)
	}
	return r, nil
}

// Render writes the Fig. 8 view.
func (r *Fig8Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 8 — ISP_D probes vs anchor, weekly queuing delay (ms)")
	tb := report.NewTable("period", "probes", "probe max", "anchor max", "probes (Mon..Sun)", "anchor (Mon..Sun)")
	for i, period := range r.Periods {
		tb.AddRowf(period, r.ProbeCounts[i],
			fmt.Sprintf("%.1f", stats.MaxIgnoringNaN(r.ProbeWeekly[i])),
			fmt.Sprintf("%.2f", stats.MaxIgnoringNaN(r.AnchorWeekly[i])),
			report.Sparkline(report.Downsample(r.ProbeWeekly[i], 28), 6),
			report.Sparkline(report.Downsample(r.AnchorWeekly[i], 28), 6))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

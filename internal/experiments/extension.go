package experiments

import (
	"fmt"
	"io"
	"net/netip"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/isp"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// ExtensionV6DelayResult goes beyond the paper: Appendix C shows IPv6
// *throughput* escaping the PPPoE bottleneck via IPoE; this experiment
// measures the same effect on the *delay* side, with dual-stack probes
// tracerouting over both families in a legacy-PPPoE network.
type ExtensionV6DelayResult struct {
	Period string
	// V4 and V6 are the per-family aggregated queuing delays.
	V4, V6 *timeseries.Series
	// V4Amp and V6Amp are the daily peak-to-peak amplitudes.
	V4Amp, V6Amp float64
	Probes       int
}

// ExtensionV6Delay measures a legacy-PPPoE ISP's last mile over IPv4
// (PPPoE) and IPv6 (IPoE) with parallel probe fleets during the Tokyo
// case-study week.
func ExtensionV6Delay(o Options) (*ExtensionV6DelayResult, error) {
	o = o.withDefaults()
	network, err := isp.New(isp.NewLegacyPPPoE("ISP_A_ext", toASN(65190), "JP", 9,
		netip.MustParsePrefix("11.4.0.0/16"), netip.MustParsePrefix("2001:db8:e600::/48"),
		0.35))
	if err != nil {
		return nil, err
	}
	p := scenario.TokyoPeriod()
	devices := network.BuildDevices(netsim.MixSeed(o.Seed, uint64(network.ASN)), 0)
	const probes = 8

	run := func(af int, idBase int) (*timeseries.Series, float64, error) {
		fleet, err := scenario.BuildFleetAF(network, devices, probes, idBase, o.Seed, af)
		if err != nil {
			return nil, 0, err
		}
		res, err := scenario.SimulatePopulationDelay(fleet, p, o.TraceroutesPerBin, o.Seed)
		if err != nil {
			return nil, 0, err
		}
		cls, err := classifySignal(res.Signal)
		if err != nil {
			return nil, 0, err
		}
		return res.Signal, cls, nil
	}
	v4, v4Amp, err := run(4, 400000)
	if err != nil {
		return nil, err
	}
	v6, v6Amp, err := run(6, 410000)
	if err != nil {
		return nil, err
	}
	return &ExtensionV6DelayResult{
		Period: p.Label,
		V4:     v4, V6: v6,
		V4Amp: v4Amp, V6Amp: v6Amp,
		Probes: probes,
	}, nil
}

// classifySignal returns the daily amplitude of a signal.
func classifySignal(s *timeseries.Series) (float64, error) {
	cls, err := core.Classify(s, core.DefaultClassifierOptions())
	if err != nil {
		return 0, err
	}
	return cls.DailyAmplitude, nil
}

// Render writes the extension's comparison.
func (r *ExtensionV6DelayResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension — IPv6 (IPoE) vs IPv4 (PPPoE) last-mile *delay*, legacy ISP, %s\n", r.Period)
	tb := report.NewTable("family", "daily amp (ms)", "median", "max", "signal")
	for _, row := range []struct {
		fam string
		s   *timeseries.Series
		amp float64
	}{
		{"IPv4 (PPPoE)", r.V4, r.V4Amp},
		{"IPv6 (IPoE)", r.V6, r.V6Amp},
	} {
		tb.AddRowf(row.fam,
			fmt.Sprintf("%.2f", row.amp),
			fmt.Sprintf("%.2f", stats.MedianIgnoringNaN(row.s.Values)),
			fmt.Sprintf("%.2f", stats.MaxIgnoringNaN(row.s.Values)),
			report.Sparkline(report.Downsample(row.s.Values, 48), 6))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "=> the newer IPoE path carries IPv6 past the congested PPPoE gear — the delay-side view of Appendix C")
	fmt.Fprintln(w)
	return nil
}

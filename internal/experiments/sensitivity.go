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
)

// SensitivityResult operationalises the paper's first limitation (§5):
// "our inferences are made from vantage points that may not be
// representative of the AS they belong to, especially when the number of
// Atlas probes is low." For a mildly congested AS, it sweeps the probe
// deployment size and reports the bootstrap class stability at each —
// quantifying how many probes a trustworthy verdict needs.
type SensitivityResult struct {
	// FleetSizes are the swept deployments.
	FleetSizes []int
	// Results holds the bootstrap outcome per fleet size.
	Results []*core.BootstrapResult
}

// ProbeSensitivity runs the sweep on a Mild-class legacy network over the
// Tokyo week.
func ProbeSensitivity(o Options) (*SensitivityResult, error) {
	o = o.withDefaults()
	network, err := isp.New(isp.NewLegacyPPPoE("ISP_sens", toASN(65195), "JP", 9,
		netip.MustParsePrefix("11.5.0.0/16"), netip.MustParsePrefix("2001:db8:e700::/48"),
		0.22)) // mildly congested: the hard regime for small fleets
	if err != nil {
		return nil, err
	}
	p := scenario.TokyoPeriod()
	devices := network.BuildDevices(netsim.MixSeed(o.Seed, uint64(network.ASN)), 0)

	out := &SensitivityResult{}
	for _, n := range []int{3, 5, 10, 20, 40} {
		fleet, err := scenario.BuildFleet(network, devices, n, 500000+n*1000, o.Seed)
		if err != nil {
			return nil, err
		}
		e, err := scenario.SimulateProbes(fleet, p, o.TraceroutesPerBin, o.Seed)
		if err != nil {
			return nil, err
		}
		perProbe, err := e.ProbeDelays(network.ASN, p.Start, p.Bins())
		if err != nil {
			return nil, err
		}
		boot, err := core.BootstrapAmplitude(perProbe, core.BootstrapOptions{Seed: o.Seed, Iterations: 150})
		if err != nil {
			return nil, err
		}
		out.FleetSizes = append(out.FleetSizes, n)
		out.Results = append(out.Results, boot)
	}
	return out, nil
}

// Render writes the sensitivity table.
func (r *SensitivityResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Probe-count sensitivity (§5 limitation #1): bootstrap stability of a Mild verdict")
	tb := report.NewTable("probes", "class", "daily amp (ms)", "90% CI", "class stability")
	for i, n := range r.FleetSizes {
		b := r.Results[i]
		tb.AddRowf(n, b.Class.String(),
			fmt.Sprintf("%.2f", b.Amplitude),
			fmt.Sprintf("%.2f - %.2f", b.CI90Low, b.CI90High),
			fmt.Sprintf("%.0f%%", 100*b.ClassStability))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "=> CI width shrinks and class stability hardens as the deployment grows; verdicts from 3-probe ASes deserve the least trust")
	fmt.Fprintln(w)
	return nil
}

// Command lmreport produces a human-readable congestion report for one
// AS of the synthetic survey world: its aggregated queuing-delay signal,
// periodogram, classification, and probe details — the single-network
// drill-down view an operator would want after a survey flags their AS.
//
// Usage:
//
//	lmreport -asn 64500
//	lmreport -asn 64511 -period 2020-04
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

func main() {
	var (
		asn    = flag.Uint64("asn", 64500, "AS number within the survey world (64500 + index)")
		period = flag.String("period", "2019-09", "measurement period label (2018-03 .. 2019-09, 2020-04)")
		seed   = flag.Uint64("seed", 2020, "simulation seed")
		ases   = flag.Int("ases", 0, "world size (default 646)")
	)
	flag.Parse()
	if err := run(os.Stdout, *asn, *period, *seed, *ases); err != nil {
		fmt.Fprintln(os.Stderr, "lmreport:", err)
		os.Exit(1)
	}
}

// run writes the report for one AS and period of the seeded world to w.
// The AS's probes are measured on GOMAXPROCS goroutines; the report is
// byte-identical at any GOMAXPROCS.
func run(w io.Writer, asn uint64, periodLabel string, seed uint64, ases int) error {
	cfg := scenario.DefaultConfig(seed)
	if ases > 0 {
		cfg.ASes = ases
	}
	world, err := scenario.Build(cfg)
	if err != nil {
		return err
	}
	var target *scenario.ASInfo
	for _, a := range world.ASes {
		if uint64(a.Network.ASN) == asn {
			target = a
			break
		}
	}
	if target == nil {
		return fmt.Errorf("AS%d is not in the world (range: 64500..%d)", asn, 64500+len(world.ASes)-1)
	}
	var period scenario.Period
	found := false
	for _, p := range scenario.AllPeriods() {
		if p.Label == periodLabel {
			period, found = p, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown period %q", periodLabel)
	}

	perProbe, err := world.PerProbeDelays(target, period)
	if err != nil {
		return err
	}
	signal, err := timeseries.AggregateMedian(perProbe)
	if err != nil {
		return err
	}
	probes := len(perProbe)
	cls, err := core.Classify(signal, core.DefaultClassifierOptions())
	if err != nil {
		return err
	}
	boot, err := core.BootstrapAmplitude(perProbe, core.BootstrapOptions{Seed: seed})
	if err != nil {
		return err
	}
	mask, err := core.PeakHourMask(signal, cls, core.DefaultGuardOptions())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Last-mile congestion report — %s, period %s\n\n", target.Network.Name, period.Label)
	tb := report.NewTable("field", "value")
	tb.AddRowf("country", target.Network.CC)
	tb.AddRowf("access technology", target.Network.Tech.String())
	rank, _ := world.Ranking.Rank(target.Network.ASN)
	users, _ := world.Ranking.Users(target.Network.ASN)
	tb.AddRowf("APNIC eyeball rank", rank)
	tb.AddRowf("estimated users", users)
	tb.AddRowf("contributing probes", probes)
	tb.AddRowf("classification", cls.Class.String())
	tb.AddRowf("daily amplitude (ms)", fmt.Sprintf("%.2f", cls.DailyAmplitude))
	tb.AddRowf("amplitude 90% CI (bootstrap)", fmt.Sprintf("%.2f - %.2f ms", boot.CI90Low, boot.CI90High))
	tb.AddRowf("class stability (bootstrap)", fmt.Sprintf("%.0f%%", 100*boot.ClassStability))
	tb.AddRowf("prominent frequency (c/h)", fmt.Sprintf("%.4f", cls.Peak.Freq))
	tb.AddRowf("prominent is daily", cls.IsDaily)
	tb.AddRowf("bins to exclude from delay studies", fmt.Sprintf("%.0f%% (peak-hour guard, §6)", 100*core.MaskedFraction(mask)))
	if err := tb.Render(w); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nAggregated queuing delay (%d bins):\n%s\n", signal.Len(),
		report.Sparkline(report.Downsample(signal.Values, 96), 0))
	fmt.Fprintf(w, "\nPeriodogram (DC..Nyquist, peak-to-peak ms):\n%s\n",
		report.Sparkline(report.Downsample(cls.Periodogram.P2P[1:], 96), 0))
	return nil
}

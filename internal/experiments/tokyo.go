package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/netip"
	"runtime"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/cdn"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// TokyoSet is the shared input of Figures 5, 6, 7 and 9: the §4 case
// study measured end to end — Atlas delays for the Greater-Tokyo probes
// and CDN throughput estimates for every service arm.
type TokyoSet struct {
	Tokyo  *scenario.Tokyo
	Period scenario.Period

	// DelayA/B/C are the aggregated last-mile queuing delays (30-minute
	// bins) with contributing probe counts.
	DelayA, DelayB, DelayC *scenario.PopulationResult

	// Broadband IPv4 throughput, mobile prefixes excluded (15-minute
	// bins) — Fig. 6 top/bottom.
	ThrA, ThrB, ThrC *timeseries.Series
	// Mobile throughput — Fig. 6 middle/bottom.
	ThrAMobile, ThrBMobile, ThrCMobile *timeseries.Series
	// Broadband throughput on 30-minute bins, for the Fig. 7 join with
	// the delay series.
	ThrA30, ThrC30 *timeseries.Series
	// Per-family broadband throughput — Fig. 9.
	ThrA4, ThrA6, ThrB4, ThrB6, ThrC4, ThrC6 *timeseries.Series

	// UniqueIPs counts distinct client addresses seen by the broadband
	// estimators (the paper's ≈150k unique IPs).
	UniqueIPs int
}

// RunTokyo builds the Tokyo world, measures delays, generates one shared
// CDN log stream, and feeds it through all throughput estimators.
func RunTokyo(o Options) (*TokyoSet, error) {
	o = o.withDefaults()
	tk, err := scenario.BuildTokyo(o.Seed, o.CDNClients)
	if err != nil {
		return nil, err
	}
	p := scenario.TokyoPeriod()
	set := &TokyoSet{Tokyo: tk, Period: p}

	// Delays (§4.1). The three fleets fan out as service arms, and each
	// fleet fans out again over its probes; every draw is keyed by probe
	// ID, so the results match the serial run at any GOMAXPROCS.
	delayArms := []*scenario.TokyoISP{tk.ISPA, tk.ISPB, tk.ISPC}
	delays, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(delayArms), func(i int) (*scenario.PopulationResult, error) {
		return scenario.SimulatePopulationDelay(delayArms[i].Probes, p, o.TraceroutesPerBin, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	set.DelayA, set.DelayB, set.DelayC = delays[0], delays[1], delays[2]

	// Throughput estimators (§4.2). All estimators consume the same
	// mixed log stream, exactly as the paper slices one CDN dataset.
	inAS := func(asn bgp.ASN) func(netip.Addr) bool {
		return func(a netip.Addr) bool {
			origin, err := tk.RIB.OriginOf(a)
			return err == nil && origin == asn
		}
	}
	mkEst := func(asn bgp.ASN, binWidth time.Duration, af int, excludeMobile, onlyMobile bool) (*cdn.Estimator, error) {
		opts := cdn.DefaultThroughputOptions()
		opts.BinWidth = binWidth
		opts.AF = af
		base := inAS(asn)
		switch {
		case excludeMobile:
			opts.Include = func(a netip.Addr) bool { return base(a) && !tk.MobilePrefixes.Contains(a) }
		case onlyMobile:
			opts.Include = func(a netip.Addr) bool { return base(a) && tk.MobilePrefixes.Contains(a) }
		default:
			opts.Include = base
		}
		return cdn.NewEstimator(p.Start, p.End, opts)
	}

	type estSpec struct {
		est **cdn.Estimator
		asn bgp.ASN
		bin time.Duration
		af  int
		// excludeMobile keeps broadband only; onlyMobile the reverse.
		excludeMobile, onlyMobile bool
	}
	var (
		estA, estB, estC           *cdn.Estimator
		estAMob, estBMob, estCMob  *cdn.Estimator
		estA30, estC30             *cdn.Estimator
		estA4, estA6, estB4, estB6 *cdn.Estimator
		estC4, estC6               *cdn.Estimator
	)
	specs := []estSpec{
		{&estA, scenario.ASNTokyoA, 15 * time.Minute, 4, true, false},
		{&estB, scenario.ASNTokyoB, 15 * time.Minute, 4, true, false},
		{&estC, scenario.ASNTokyoC, 15 * time.Minute, 4, true, false},
		{&estAMob, scenario.ASNTokyoAMobile, 15 * time.Minute, 4, false, true},
		{&estBMob, scenario.ASNTokyoB, 15 * time.Minute, 4, false, true},
		{&estCMob, scenario.ASNTokyoC, 15 * time.Minute, 4, false, true},
		{&estA30, scenario.ASNTokyoA, 30 * time.Minute, 4, true, false},
		{&estC30, scenario.ASNTokyoC, 30 * time.Minute, 4, true, false},
		{&estA4, scenario.ASNTokyoA, 15 * time.Minute, 4, true, false},
		{&estA6, scenario.ASNTokyoA, 15 * time.Minute, 6, true, false},
		{&estB4, scenario.ASNTokyoB, 15 * time.Minute, 4, true, false},
		{&estB6, scenario.ASNTokyoB, 15 * time.Minute, 6, true, false},
		{&estC4, scenario.ASNTokyoC, 15 * time.Minute, 4, true, false},
		{&estC6, scenario.ASNTokyoC, 15 * time.Minute, 6, true, false},
	}
	ests := make([]*cdn.Estimator, len(specs))
	for j, s := range specs {
		e, err := mkEst(s.asn, s.bin, s.af, s.excludeMobile, s.onlyMobile)
		if err != nil {
			return nil, err
		}
		*s.est = e
		ests[j] = e
	}

	// The six generator arms fan out, each feeding its own estimator
	// shard; shards are merged in arm order afterwards. Arms draw their
	// clients from disjoint prefixes, so the merged estimators are
	// identical to every estimator consuming one shared stream (see
	// Estimator.Merge).
	arms := []*scenario.TokyoISP{tk.ISPA, tk.ISPB, tk.ISPC, tk.ISPAMobile, tk.ISPBMobile, tk.ISPCMobile}
	shards, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(arms), func(i int) ([]*cdn.Estimator, error) {
		arm := arms[i]
		if arm.CDNClients == 0 {
			return nil, nil
		}
		shard := make([]*cdn.Estimator, len(specs))
		for j, s := range specs {
			e, err := mkEst(s.asn, s.bin, s.af, s.excludeMobile, s.onlyMobile)
			if err != nil {
				return nil, err
			}
			shard[j] = e
		}
		emit := func(e cdn.LogEntry) error {
			for _, est := range shard {
				est.Add(&e)
			}
			return nil
		}
		gen := &cdn.Generator{
			Network:                 arm.Network,
			Devices:                 arm.Devices,
			Clients:                 arm.CDNClients,
			RequestsPerClientPerDay: 40,
			DualStackFrac:           0.6,
			Seed:                    o.Seed + uint64(i)*1000,
		}
		if err := gen.Generate(p.Start, p.End, emit); err != nil {
			return nil, err
		}
		return shard, nil
	})
	if err != nil {
		return nil, err
	}
	for _, shard := range shards {
		if shard == nil {
			continue
		}
		for j := range ests {
			ests[j].Merge(shard[j])
		}
	}

	const minIPs = 3
	set.ThrA, set.ThrB, set.ThrC = estA.Series(minIPs), estB.Series(minIPs), estC.Series(minIPs)
	set.ThrAMobile, set.ThrBMobile, set.ThrCMobile = estAMob.Series(minIPs), estBMob.Series(minIPs), estCMob.Series(minIPs)
	set.ThrA30, set.ThrC30 = estA30.Series(minIPs), estC30.Series(minIPs)
	set.ThrA4, set.ThrA6 = estA4.Series(minIPs), estA6.Series(minIPs)
	set.ThrB4, set.ThrB6 = estB4.Series(minIPs), estB6.Series(minIPs)
	set.ThrC4, set.ThrC6 = estC4.Series(minIPs), estC6.Series(minIPs)
	set.UniqueIPs = estA.UniqueIPs() + estB.UniqueIPs() + estC.UniqueIPs()
	return set, nil
}

// Fig5Result is the Tokyo delay comparison (§4.1).
type Fig5Result struct {
	Period                    string
	ProbesA, ProbesB, ProbesC int
	DelayA, DelayB, DelayC    *timeseries.Series
	// DailyMax holds each ISP's per-day maximum delay (the markers of
	// Fig. 5).
	DailyMaxA, DailyMaxB, DailyMaxC []float64
}

// Fig5From extracts Figure 5 from a Tokyo run.
func Fig5From(ts *TokyoSet) *Fig5Result {
	return &Fig5Result{
		Period:    ts.Period.Label,
		ProbesA:   ts.DelayA.Probes,
		ProbesB:   ts.DelayB.Probes,
		ProbesC:   ts.DelayC.Probes,
		DelayA:    ts.DelayA.Signal,
		DelayB:    ts.DelayB.Signal,
		DelayC:    ts.DelayC.Signal,
		DailyMaxA: dailyMaxima(ts.DelayA.Signal),
		DailyMaxB: dailyMaxima(ts.DelayB.Signal),
		DailyMaxC: dailyMaxima(ts.DelayC.Signal),
	}
}

// Render writes the Fig. 5 view.
func (r *Fig5Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 5 — aggregated last-mile queuing delay, Greater Tokyo, %s\n", r.Period)
	tb := report.NewTable("ISP", "probes", "median", "max", "daily max (ms, per day)", "signal")
	rows := []struct {
		name   string
		probes int
		s      *timeseries.Series
		dm     []float64
	}{
		{"ISP_A", r.ProbesA, r.DelayA, r.DailyMaxA},
		{"ISP_B", r.ProbesB, r.DelayB, r.DailyMaxB},
		{"ISP_C", r.ProbesC, r.DelayC, r.DailyMaxC},
	}
	for _, row := range rows {
		med := stats.MedianIgnoringNaN(row.s.Values)
		max := stats.MaxIgnoringNaN(row.s.Values)
		tb.AddRowf(row.name, row.probes,
			fmt.Sprintf("%.2f", med), fmt.Sprintf("%.2f", max),
			fmtDailyMax(row.dm),
			report.Sparkline(report.Downsample(row.s.Values, 48), 6))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// dailyMaxima returns the per-day maximum of a series.
func dailyMaxima(s *timeseries.Series) []float64 {
	perDay := int(24 * time.Hour / s.Step)
	var out []float64
	for lo := 0; lo < s.Len(); lo += perDay {
		hi := lo + perDay
		if hi > s.Len() {
			hi = s.Len()
		}
		out = append(out, stats.MaxIgnoringNaN(s.Values[lo:hi]))
	}
	return out
}

func fmtDailyMax(dm []float64) string {
	out := ""
	for i, v := range dm {
		if i > 0 {
			out += " "
		}
		if math.IsNaN(v) {
			out += "-"
		} else {
			out += fmt.Sprintf("%.1f", v)
		}
	}
	return out
}

// Fig6Result is the Tokyo throughput comparison (§4.2).
type Fig6Result struct {
	Period string
	// Broadband and Mobile are the median-throughput series per ISP.
	Broadband, Mobile map[string]*timeseries.Series
	UniqueIPs         int
}

// Fig6From extracts Figure 6 from a Tokyo run.
func Fig6From(ts *TokyoSet) *Fig6Result {
	return &Fig6Result{
		Period: ts.Period.Label,
		Broadband: map[string]*timeseries.Series{
			"ISP_A": ts.ThrA, "ISP_B": ts.ThrB, "ISP_C": ts.ThrC,
		},
		Mobile: map[string]*timeseries.Series{
			"ISP_A": ts.ThrAMobile, "ISP_B": ts.ThrBMobile, "ISP_C": ts.ThrCMobile,
		},
		UniqueIPs: ts.UniqueIPs,
	}
}

// Render writes the Fig. 6 view.
func (r *Fig6Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 6 — median CDN throughput (Mbps), Tokyo, %s (%d unique broadband IPs)\n", r.Period, r.UniqueIPs)
	tb := report.NewTable("series", "median", "min-of-daily-min", "peak-hour drop", "signal")
	for _, name := range []string{"ISP_A", "ISP_B", "ISP_C"} {
		for _, kind := range []string{"broadband", "mobile"} {
			s := r.Broadband[name]
			if kind == "mobile" {
				s = r.Mobile[name]
			}
			med := stats.MedianIgnoringNaN(s.Values)
			min := stats.MinIgnoringNaN(s.Values)
			drop := peakHourDrop(s)
			tb.AddRowf(name+" "+kind,
				fmt.Sprintf("%.1f", med), fmt.Sprintf("%.1f", min),
				fmt.Sprintf("%.0f%%", 100*drop),
				report.Sparkline(report.Downsample(s.Values, 48), 60))
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// peakHourDrop returns 1 − (peak-hour median / off-peak median) for a
// JST subscriber population: peak 20:00–23:00 JST, off-peak 03:00–06:00
// JST.
func peakHourDrop(s *timeseries.Series) float64 {
	var peak, off []float64
	for i, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		h := (s.TimeAt(i).UTC().Hour() + 9) % 24 // JST
		switch {
		case h >= 20 && h < 23:
			peak = append(peak, v)
		case h >= 3 && h < 6:
			off = append(off, v)
		}
	}
	pm := stats.MedianIgnoringNaN(peak)
	om := stats.MedianIgnoringNaN(off)
	if math.IsNaN(pm) || math.IsNaN(om) || om == 0 {
		return 0
	}
	return 1 - pm/om
}

// Fig7Result is the delay-throughput correlation (§4.3).
type Fig7Result struct {
	Period string
	// RhoA and RhoC are the Spearman rank correlations for ISP_A and
	// ISP_C (paper: −0.6 and 0.0).
	RhoA, RhoC float64
	// PointsA and PointsC are the (delay ms, throughput Mbps) pairs the
	// scatter plots of Fig. 7 draw.
	PointsA, PointsC [][2]float64
}

// Fig7From joins the Fig. 5 delays with 30-minute-binned throughput and
// computes the correlations.
func Fig7From(ts *TokyoSet) *Fig7Result {
	r := &Fig7Result{Period: ts.Period.Label}
	r.RhoA, r.PointsA = delayThroughput(ts.DelayA.Signal, ts.ThrA30)
	r.RhoC, r.PointsC = delayThroughput(ts.DelayC.Signal, ts.ThrC30)
	return r
}

func delayThroughput(delay, thr *timeseries.Series) (float64, [][2]float64) {
	n := delay.Len()
	if thr.Len() < n {
		n = thr.Len()
	}
	var points [][2]float64
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, t := delay.Values[i], thr.Values[i]
		if math.IsNaN(d) || math.IsNaN(t) {
			continue
		}
		points = append(points, [2]float64{d, t})
		xs = append(xs, d)
		ys = append(ys, t)
	}
	rho, err := stats.Spearman(xs, ys)
	if err != nil {
		return math.NaN(), points
	}
	return rho, points
}

// Render writes the Fig. 7 view.
func (r *Fig7Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 7 — delay vs throughput, Spearman rank correlation, %s\n", r.Period)
	tb := report.NewTable("ISP", "rho (measured)", "rho (paper)", "points")
	tb.AddRowf("ISP_A", fmt.Sprintf("%.2f", r.RhoA), "-0.6", len(r.PointsA))
	tb.AddRowf("ISP_C", fmt.Sprintf("%.2f", r.RhoC), "0.0", len(r.PointsC))
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// Fig9Result is the IPv4 vs IPv6 throughput comparison (Appendix C).
type Fig9Result struct {
	Period string
	// V4 and V6 map ISP name to median-throughput series.
	V4, V6 map[string]*timeseries.Series
}

// Fig9From extracts Figure 9 from a Tokyo run.
func Fig9From(ts *TokyoSet) *Fig9Result {
	return &Fig9Result{
		Period: ts.Period.Label,
		V4:     map[string]*timeseries.Series{"ISP_A": ts.ThrA4, "ISP_B": ts.ThrB4, "ISP_C": ts.ThrC4},
		V6:     map[string]*timeseries.Series{"ISP_A": ts.ThrA6, "ISP_B": ts.ThrB6, "ISP_C": ts.ThrC6},
	}
}

// Render writes the Fig. 9 view.
func (r *Fig9Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 9 — IPv4 vs IPv6 throughput (Mbps), Tokyo, %s\n", r.Period)
	tb := report.NewTable("ISP", "family", "median", "peak-hour drop", "signal")
	for _, name := range []string{"ISP_A", "ISP_B", "ISP_C"} {
		for _, fam := range []string{"IPv4", "IPv6"} {
			s := r.V4[name]
			if fam == "IPv6" {
				s = r.V6[name]
			}
			tb.AddRowf(name, fam,
				fmt.Sprintf("%.1f", stats.MedianIgnoringNaN(s.Values)),
				fmt.Sprintf("%.0f%%", 100*peakHourDrop(s)),
				report.Sparkline(report.Downsample(s.Values, 48), 60))
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

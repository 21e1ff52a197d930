// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has a Run function returning a typed result
// and a Render method producing terminal output; cmd/lmexp, the benchmark
// suite, and EXPERIMENTS.md are all driven from here.
//
// Index (see DESIGN.md §4 for the full mapping):
//
//	Fig1     — weekly aggregated queuing delay, ISP_DE vs ISP_US, 7 periods
//	Fig2     — Welch periodograms of the Fig. 1 signals
//	Fig3     — CDFs of prominent frequency and daily amplitude, 646 ASes
//	Fig4     — classification × APNIC rank bucket, Sep 2019 vs Apr 2020
//	Headline — §3's survey numbers (reported counts, churn, COVID, geo)
//	Fig5     — Tokyo aggregated delays, ISP_A/B/C
//	Fig6     — Tokyo CDN throughput, broadband vs mobile
//	Fig7     — delay-throughput Spearman correlation, ISP_A vs ISP_C
//	Fig8     — ISP_D probes vs anchor (Appendix B)
//	Fig9     — IPv4 vs IPv6 throughput (Appendix C)
package experiments

// Options scales the experiments. The zero value selects paper-scale
// parameters; tests use reduced scales. The expensive stages fan out on
// GOMAXPROCS goroutines, and output is bit-identical at any GOMAXPROCS
// (DESIGN.md §9).
type Options struct {
	// Seed drives all randomness (default 2020, the paper's year).
	Seed uint64
	// WorldASes sizes the survey world (default 646).
	WorldASes int
	// FleetSize is the nominal probe count for the Fig. 1/2/8 dedicated
	// fleets (default 340, giving the paper's ~290–345 active probes).
	FleetSize int
	// CDNClients is the client population per Tokyo broadband ISP
	// (default 2000).
	CDNClients int
	// TraceroutesPerBin is the per-bin traceroute cadence (default 6).
	TraceroutesPerBin int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2020
	}
	if o.WorldASes == 0 {
		o.WorldASes = 646
	}
	if o.FleetSize == 0 {
		o.FleetSize = 340
	}
	if o.CDNClients == 0 {
		o.CDNClients = 2000
	}
	if o.TraceroutesPerBin == 0 {
		o.TraceroutesPerBin = 6
	}
	return o
}

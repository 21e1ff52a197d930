package scenario

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/ipnet"
	"github.com/last-mile-congestion/lastmile/internal/isp"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// periodSeverity returns the AS's effective severity for a period: the
// base severity plus a small per-period wobble, which makes borderline
// ASes flip classes across periods and produces the churn §3.1 reports.
func (w *World) periodSeverity(a *ASInfo, p Period) isp.Severity {
	rng := netsim.DerivedRand(w.Seed, uint64(a.Network.ASN), PeriodIndex(p), 0x5e7)
	return isp.Severity(float64(a.BaseSeverity) + rng.NormFloat64()*0.02)
}

// NetworkFor instantiates the AS's network at its per-period severity.
func (w *World) NetworkFor(a *ASInfo, p Period) (*isp.Network, error) {
	return isp.New(a.buildCfg(w.periodSeverity(a, p)))
}

// ProbesFor builds the AS's active probe fleet for a period. Deployment
// grows over time (Atlas grew steadily through 2018–2020), so later
// periods activate more of the AS's probe slots. Devices are built per
// period from the per-period network.
func (w *World) ProbesFor(a *ASInfo, p Period) ([]*atlas.Probe, error) {
	network, err := w.NetworkFor(a, p)
	if err != nil {
		return nil, err
	}
	devices := network.BuildDevices(netsim.MixSeed(w.Seed, PeriodIndex(p)), p.COVIDShift)
	ordinal := periodOrdinal(p)
	activeProb := min(0.78+0.03*float64(ordinal), 0.98)
	var probes []*atlas.Probe
	for slot := 0; slot < a.BaseProbes; slot++ {
		slotRng := netsim.DerivedRand(w.Seed, uint64(a.Network.ASN), uint64(slot), 0xdeb)
		if slotRng.Float64() > activeProb {
			continue
		}
		probe, err := w.buildProbe(a, network, devices, slot, slotRng)
		if err != nil {
			return nil, err
		}
		probes = append(probes, probe)
	}
	return probes, nil
}

// buildProbe wires one probe slot into the simulated network.
func (w *World) buildProbe(a *ASInfo, network *isp.Network, devices *isp.DeviceSet, slot int, rng interface{ Intn(int) int }) (*atlas.Probe, error) {
	id := a.Index*1000 + slot + 10000
	pub, err := ipnet.HostAt(network.Prefix, uint64(5000+slot*13))
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", network.Name, err)
	}
	dev := devices.DeviceFor(uint64(id), 4)
	edgeIdx := uint64(2)
	if dev != nil {
		edgeIdx = 2 + dev.ID%200
	}
	edge, err := ipnet.HostAt(network.Prefix, edgeIdx)
	if err != nil {
		return nil, err
	}
	coreAddr, err := ipnet.HostAt(network.Prefix, 65000)
	if err != nil {
		return nil, err
	}
	version := 3
	availability := 0.985
	// Roughly a fifth of the fleet is older v1/v2 hardware (§2).
	switch rng.Intn(10) {
	case 0:
		version, availability = 1, 0.93
	case 1:
		version, availability = 2, 0.95
	}
	// A quarter of probes sit behind Wi-Fi or busy home LANs whose
	// millisecond-scale noise drowns weak diurnal signals.
	extraNoise := 0.02 * float64(rng.Intn(5))
	if rng.Intn(4) == 0 {
		extraNoise = 0.6 + float64(rng.Intn(150))/100
	}
	return &atlas.Probe{
		ID:           id,
		Version:      version,
		ASN:          network.ASN,
		CC:           network.CC,
		PublicAddr:   pub,
		LANAddr:      netip.AddrFrom4([4]byte{192, 168, 1, 10}),
		GatewayAddr:  netip.AddrFrom4([4]byte{192, 168, 1, 1}),
		EdgeAddr:     edge,
		CoreAddr:     coreAddr,
		Device:       dev,
		EdgeBaseMs:   network.EdgeBaseMs,
		ExtraNoiseMs: extraNoise,
		Availability: availability,
	}, nil
}

// periodOrdinal orders the standard periods for deployment growth.
func periodOrdinal(p Period) int {
	switch p.Label {
	case "2018-03":
		return 0
	case "2018-06":
		return 1
	case "2018-09":
		return 2
	case "2019-03":
		return 3
	case "2019-06":
		return 4
	case "2019-09", "2019-09-tokyo":
		return 5
	case "2020-04":
		return 7
	default:
		return 4
	}
}

// probeScratch is the per-worker reusable state of the probe fast path:
// one re-keyable PRNG stream and one pairwise-sample buffer, pooled so
// the per-(bin, traceroute) inner loop allocates nothing.
type probeScratch struct {
	stream  *netsim.Stream
	samples []float64
}

var probeScratchPool = sync.Pool{
	New: func() any {
		return &probeScratch{stream: netsim.NewStream(), samples: make([]float64, 0, 9)}
	},
}

// SimulateProbeDelay runs the fast-path delay measurement for one probe
// over a period: per 30-minute bin, TraceroutesPerBin truncated
// traceroutes over the probe's last-mile route, each contributing 9
// pairwise samples, exactly as the full Atlas engine + estimator would.
// Each traceroute's samples are observed into e under the probe's AS
// and ID. Bins do not depend on arrival order, so probes may be
// simulated into one engine concurrently.
func SimulateProbeDelay(e *engine.Engine, probe *atlas.Probe, p Period, perBin int, seed uint64) error {
	route := probe.LastMileRoute()
	scratch := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(scratch)
	rng := scratch.stream
	var priv, pub [3]float64
	for binStart := p.Start; binStart.Before(p.End); binStart = binStart.Add(lastmile.DefaultBinWidth) {
		if !probe.OnlineAtStream(binStart, seed, rng) {
			continue
		}
		binUnix := uint64(binStart.Unix())
		for k := 0; k < perBin; k++ {
			rng.Derive(seed, uint64(probe.ID), binUnix, uint64(k))
			at := binStart.Add(time.Duration(rng.Int63n(int64(lastmile.DefaultBinWidth))))
			okAll := true
			for i := 0; i < 3; i++ {
				v, ok, err := route.RTT(0, at, rng.Rand)
				if err != nil {
					return err
				}
				if !ok {
					okAll = false
					break
				}
				priv[i] = v
			}
			if !okAll {
				continue
			}
			for i := 0; i < 3; i++ {
				v, ok, err := route.RTT(1, at, rng.Rand)
				if err != nil {
					return err
				}
				if !ok {
					okAll = false
					break
				}
				pub[i] = v
			}
			if !okAll {
				continue
			}
			// The engine copies the group, so the scratch buffer is free
			// for the next traceroute. A traceroute without samples is
			// not a measurement group, as in the Atlas pipeline.
			if samples := lastmile.PairwiseFromRTTsInto(scratch.samples[:0], priv[:], pub[:]); len(samples) > 0 {
				e.Observe(probe.ASN, probe.ID, at, samples)
			}
		}
	}
	return nil
}

// SimulateProbes observes the fast-path measurement of every probe into
// one new engine, on GOMAXPROCS goroutines. Each probe's draws are keyed
// by its ID and bins do not depend on arrival order, so the engine is
// identical at any GOMAXPROCS.
func SimulateProbes(probes []*atlas.Probe, p Period, perBin int, seed uint64) (*engine.Engine, error) {
	e := engine.New(engine.Options{})
	err := parallel.ForEach(context.Background(), runtime.GOMAXPROCS(0), len(probes), func(i int) error {
		return SimulateProbeDelay(e, probes[i], p, perBin, seed)
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Bins returns the number of default-width bins covering the period, a
// last partial bin included.
func (p Period) Bins() int {
	return int((p.End.Sub(p.Start) + lastmile.DefaultBinWidth - 1) / lastmile.DefaultBinWidth)
}

// PerProbeDelays measures one AS for a period and returns each probe's
// queuing-delay series, in ascending probe ID — the input for
// aggregation and for the §5 probe-variability bootstrap. Probes
// without a usable baseline are skipped. Probes are measured
// concurrently into one engine, so the series list is identical at any
// GOMAXPROCS.
func (w *World) PerProbeDelays(a *ASInfo, p Period) ([]*timeseries.Series, error) {
	e, err := w.measure(a, p)
	if err != nil {
		return nil, err
	}
	qds, err := e.ProbeDelays(a.Network.ASN, p.Start, p.Bins())
	if err != nil {
		return nil, fmt.Errorf("scenario: %s produced no usable probe series: %w", a.Network.Name, err)
	}
	return qds, nil
}

// measure simulates the AS's active probes for a period into one
// engine. An AS with fewer than 3 active probes is below the monitoring
// bar.
func (w *World) measure(a *ASInfo, p Period) (*engine.Engine, error) {
	probes, err := w.ProbesFor(a, p)
	if err != nil {
		return nil, err
	}
	if len(probes) < 3 {
		return nil, fmt.Errorf("scenario: %s has %d active probes (<3)", a.Network.Name, len(probes))
	}
	return SimulateProbes(probes, p, w.TraceroutesPerBin, w.Seed)
}

// surveyAS measures one AS for a period into its own engine and
// classifies it with the core.ClassifyWindow pass, returning the
// verdict or the reason there is none.
func (w *World) surveyAS(a *ASInfo, p Period) (*core.ASResult, error) {
	e, err := w.measure(a, p)
	if err != nil {
		return nil, err
	}
	verdicts, skipped := core.ClassifyWindow(e, []bgp.ASN{a.Network.ASN}, p.Start, p.Bins(), core.DefaultClassifierOptions(), 1, nil)
	if len(skipped) > 0 {
		return nil, skipped[0].Reason
	}
	return verdicts[0], nil
}

// RunSurvey measures and classifies every AS for one period (§3). ASes
// with fewer than 3 active probes, or whose signal cannot be classified,
// are skipped — mirroring the paper's monitoring bar. ASes are measured
// on GOMAXPROCS goroutines, each into its own engine; every stochastic
// draw is keyed by (seed, ASN, period) and results are added in AS
// order, so the survey is identical at any GOMAXPROCS.
func (w *World) RunSurvey(p Period) (*core.Survey, error) {
	survey := core.NewSurvey(p.Label)
	results, err := parallel.Map(context.Background(), runtime.GOMAXPROCS(0), len(w.ASes), func(i int) (*core.ASResult, error) {
		res, _ := w.surveyAS(w.ASes[i], p) // nil for an AS skipped this period
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r != nil {
			survey.Add(r)
		}
	}
	if survey.Len() == 0 {
		return nil, fmt.Errorf("scenario: survey %s classified no AS", p.Label)
	}
	return survey, nil
}

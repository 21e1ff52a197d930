package scenario

import (
	"errors"
	"fmt"
	"net/netip"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/ipnet"
	"github.com/last-mile-congestion/lastmile/internal/isp"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// BuildFleet deploys n IPv4 probes into a network for standalone
// experiments (the Fig. 1/2 ISP_DE vs ISP_US comparison and the Fig. 8
// anchor study build their fleets directly rather than through a survey
// world). Probe IDs start at idBase. A fraction of the fleet is older
// v1/v2 hardware, as on the real platform.
func BuildFleet(network *isp.Network, devices *isp.DeviceSet, n int, idBase int, seed uint64) ([]*atlas.Probe, error) {
	return BuildFleetAF(network, devices, n, idBase, seed, 4)
}

// BuildFleetAF is BuildFleet with an explicit address family. IPv6 probes
// measure the network's IPv6 path: ULA home addressing and the V6 device
// set, which for legacy-PPPoE networks is the uncongested IPoE plant —
// the delay-side counterpart of the paper's Appendix C.
func BuildFleetAF(network *isp.Network, devices *isp.DeviceSet, n int, idBase int, seed uint64, af int) ([]*atlas.Probe, error) {
	if af != 4 && af != 6 {
		return nil, fmt.Errorf("scenario: bad address family %d", af)
	}
	prefix := network.Prefix
	if af == 6 {
		if !network.PrefixV6.IsValid() {
			return nil, fmt.Errorf("scenario: %s has no IPv6 prefix", network.Name)
		}
		prefix = network.PrefixV6
	}
	probes := make([]*atlas.Probe, 0, n)
	for slot := 0; slot < n; slot++ {
		id := idBase + slot
		pub, err := ipnet.HostAt(prefix, uint64(5000+slot*13))
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", network.Name, err)
		}
		dev := devices.DeviceFor(uint64(id), af)
		edgeIdx := uint64(2)
		if dev != nil {
			edgeIdx = 2 + dev.ID%200
		}
		edge, err := ipnet.HostAt(prefix, edgeIdx)
		if err != nil {
			return nil, err
		}
		coreAddr, err := ipnet.HostAt(prefix, 65000)
		if err != nil {
			return nil, err
		}
		rng := netsim.DerivedRand(seed, uint64(id), 0xf1ee7)
		version, availability := 3, 0.985
		switch rng.Intn(10) {
		case 0:
			version, availability = 1, 0.93
		case 1:
			version, availability = 2, 0.95
		}
		// A quarter of the fleet sits behind noisy home networks; see
		// Probe.ExtraNoiseMs.
		extraNoise := 0.02 * float64(rng.Intn(5))
		if rng.Intn(4) == 0 {
			extraNoise = 0.6 + float64(rng.Intn(150))/100
		}
		lan := netip.AddrFrom4([4]byte{192, 168, 1, 10})
		gateway := netip.AddrFrom4([4]byte{192, 168, 1, 1})
		if af == 6 {
			// ULA home addressing: the estimator treats fc00::/7 as
			// the subscriber side (ipnet.IsPrivate).
			lan = netip.MustParseAddr("fd00::10")
			gateway = netip.MustParseAddr("fd00::1")
		}
		probes = append(probes, &atlas.Probe{
			ID:           id,
			Version:      version,
			ASN:          network.ASN,
			CC:           network.CC,
			PublicAddr:   pub,
			LANAddr:      lan,
			GatewayAddr:  gateway,
			EdgeAddr:     edge,
			CoreAddr:     coreAddr,
			Device:       dev,
			EdgeBaseMs:   network.EdgeBaseMs,
			ExtraNoiseMs: extraNoise,
			Availability: availability,
		})
	}
	return probes, nil
}

// FleetSizeFor scales a nominal fleet size to a period, reproducing the
// platform's deployment growth (Fig. 1's per-period probe counts).
func FleetSizeFor(nominal int, p Period) int {
	frac := min(0.82+0.028*float64(periodOrdinal(p)), 1)
	n := max(int(float64(nominal)*frac), 3)
	return n
}

// PopulationResult is the aggregated outcome of measuring a probe fleet.
type PopulationResult struct {
	// Signal is the aggregated queuing-delay series.
	Signal *timeseries.Series
	// Probes is the number of probes that contributed usable data.
	Probes int
}

// SimulatePopulationDelay runs the fast-path measurement for a whole
// fleet and aggregates it (§2.1), returning the aggregated queuing delay
// and the number of contributing probes. The fleet's probes share one
// AS, as BuildFleet's do; SimulateProbes observes them into one engine,
// so the result is identical at any GOMAXPROCS.
func SimulatePopulationDelay(probes []*atlas.Probe, p Period, perBin int, seed uint64) (*PopulationResult, error) {
	if len(probes) == 0 {
		return nil, errors.New("scenario: empty probe population")
	}
	e, err := SimulateProbes(probes, p, perBin, seed)
	if err != nil {
		return nil, err
	}
	signal, n, err := e.Signal(probes[0].ASN, p.Start, p.Bins())
	if err != nil {
		return nil, err
	}
	return &PopulationResult{Signal: signal, Probes: n}, nil
}

package scenario

import (
	"fmt"
	"math/rand"

	"github.com/last-mile-congestion/lastmile/internal/apnic"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/isp"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
)

// Config parameterises the synthetic survey world.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// ASes is the number of monitored ASes (default 646, as in §3).
	ASes int
	// MaxProbesPerAS caps per-AS probe deployment; large eyeballs are
	// truncated to keep survey runtime bounded (statistically the
	// population median stabilises long before 30 probes).
	MaxProbesPerAS int
	// TraceroutesPerBin is the simulated traceroute cadence per
	// 30-minute bin. Atlas's built-ins give 24; the survey defaults to
	// 6, which preserves per-bin medians while cutting runtime 4×.
	// Clamped to at least 3 so the paper's sanity filter stays active.
	TraceroutesPerBin int
}

// DefaultConfig returns the paper-scale world.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, ASes: 646, MaxProbesPerAS: 30, TraceroutesPerBin: 6}
}

// archetype tags how an AS's severity was drawn, for reporting and for
// the COVID flip accounting.
type archetype int

const (
	archFlat archetype = iota
	archWeakDaily
	archNearMiss
	archLow
	archMild
	archMildHigh
	archSevere
)

// String names the archetype.
func (a archetype) String() string {
	switch a {
	case archFlat:
		return "flat"
	case archWeakDaily:
		return "weak-daily"
	case archNearMiss:
		return "near-miss"
	case archLow:
		return "low"
	case archMild:
		return "mild"
	case archMildHigh:
		return "mild-high"
	case archSevere:
		return "severe"
	default:
		return "unknown"
	}
}

// ASInfo is one monitored AS in the world.
type ASInfo struct {
	// Index is the AS's position in World.ASes.
	Index int
	// Network is the access network (per-period devices are built from
	// it).
	Network *isp.Network
	// BaseSeverity is the congestion severity the AS was assigned;
	// per-period severity wobbles around it.
	BaseSeverity isp.Severity
	// Archetype records which band the severity was drawn from.
	Archetype archetype
	// BaseProbes is the nominal probe deployment.
	BaseProbes int
	// Users is the APNIC-style eyeball estimate.
	Users int64
	// buildCfg rebuilds the network config at a given severity, used
	// for per-period wobble.
	buildCfg func(isp.Severity) isp.Config
}

// World is the generated survey world.
type World struct {
	Config
	// ASes holds the monitored networks.
	ASes []*ASInfo
	// Ranking is the APNIC-style eyeball ranking (monitored ASes plus
	// background filler so rank buckets beyond the monitored set are
	// populated).
	Ranking *apnic.Ranking
	// RIB maps addresses back to ASNs.
	RIB *bgp.RIB
}

// Severity band constants. The bands are calibrated against the detector:
// the generic eyeball archetype maps severity s to peak device utilisation
// 0.55 + 1.1·s, and the M/M/1-with-6.5ms-buffer queue turns that into the
// aggregated daily amplitude the classifier thresholds at 0.5/1/3 ms.
// Counts are set so a 646-AS world reproduces the paper's survey numbers
// (≈47 reported per period; +55% under COVID; Fig. 3's 83/7/6/4 split of
// daily amplitudes).
const (
	severeCount   = 11
	mildHighCount = 14 // straddle the Mild/Severe boundary across periods
	mildCount     = 6
	lowCount      = 18
	nearMissCount = 18   // flip into Low/Mild mainly under COVID
	weakDailyFrac = 0.55 // of the remaining ASes: tiny but dominant daily
)

// severityBand returns the severity range of an archetype.
func severityBand(a archetype) (lo, hi float64) {
	switch a {
	case archSevere:
		return 0.46, 0.75
	case archMildHigh:
		return 0.435, 0.46
	case archMild:
		return 0.37, 0.40
	case archLow:
		return 0.29, 0.335
	case archNearMiss:
		return 0.262, 0.283
	case archWeakDaily:
		return 0.06, 0.18
	default:
		return 0, 0.05
	}
}

// countries is the monitored-country list (98 entries, §3). Ordering
// matters: assignment weights fall with the index, reflecting Atlas's
// deployment bias toward Europe and North America.
var countries = []string{
	"DE", "US", "FR", "GB", "NL", "RU", "IT", "JP", "CZ", "SE",
	"CH", "BE", "PL", "CA", "AT", "ES", "FI", "AU", "DK", "NO",
	"UA", "GR", "RO", "BG", "PT", "IE", "HU", "SK", "NZ", "BR",
	"ZA", "IN", "SG", "HK", "TW", "KR", "ID", "TH", "MY", "PH",
	"VN", "TR", "IL", "AE", "SA", "EG", "MA", "TN", "KE", "NG",
	"AR", "CL", "CO", "MX", "PE", "UY", "EC", "VE", "CR", "PA",
	"SI", "HR", "RS", "BA", "MK", "AL", "LT", "LV", "EE", "BY",
	"MD", "GE", "AM", "AZ", "KZ", "UZ", "KG", "MN", "NP", "BD",
	"LK", "PK", "IR", "IQ", "JO", "LB", "CY", "MT", "LU", "IS",
	"LI", "MC", "AD", "SM", "GI", "FO", "GL", "BM",
}

// Build generates the world for cfg.
func Build(cfg Config) (*World, error) {
	if cfg.ASes <= 0 {
		cfg.ASes = 646
	}
	if cfg.MaxProbesPerAS <= 0 {
		cfg.MaxProbesPerAS = 30
	}
	if cfg.TraceroutesPerBin < 3 {
		cfg.TraceroutesPerBin = 6
	}
	minimum := severeCount + mildHighCount + mildCount + lowCount + nearMissCount
	if cfg.ASes < minimum+10 {
		return nil, fmt.Errorf("scenario: need at least %d ASes, got %d", minimum+10, cfg.ASes)
	}
	w := &World{Config: cfg}
	rng := netsim.DerivedRand(cfg.Seed, worldSalt)

	// 1. Draw archetypes. Fixed counts for the reported classes, then
	// weak-daily vs flat for the remainder.
	arch := make([]archetype, 0, cfg.ASes)
	for i := 0; i < severeCount; i++ {
		arch = append(arch, archSevere)
	}
	for i := 0; i < mildHighCount; i++ {
		arch = append(arch, archMildHigh)
	}
	for i := 0; i < mildCount; i++ {
		arch = append(arch, archMild)
	}
	for i := 0; i < lowCount; i++ {
		arch = append(arch, archLow)
	}
	for i := 0; i < nearMissCount; i++ {
		arch = append(arch, archNearMiss)
	}
	for len(arch) < cfg.ASes {
		if rng.Float64() < weakDailyFrac {
			arch = append(arch, archWeakDaily)
		} else {
			arch = append(arch, archFlat)
		}
	}

	// 2. Assign countries. Reported-class ASes are deliberately placed:
	// Japan gets 3 Severe + 2 MildHigh (the paper's "5 of the top 10
	// monitored Japanese ASes reported, 3 constantly"), the U.S. one
	// Severe and a couple of Mild, and the rest spread across distinct
	// countries so ≈50 countries see at least one report.
	cc := assignCountries(arch, rng)

	// 3. Build networks, users and probes.
	alloc := &prefixAllocator{}
	var estimates []apnic.Estimate
	rib := &bgp.RIB{}
	for i := 0; i < cfg.ASes; i++ {
		a := arch[i]
		lo, hi := severityBand(a)
		sev := isp.Severity(lo + rng.Float64()*(hi-lo))
		asn := bgp.ASN(64500 + i)
		country := cc[i]
		v4, err := alloc.NextV4()
		if err != nil {
			return nil, err
		}
		v6, err := alloc.NextV6()
		if err != nil {
			return nil, err
		}
		utc := utcOffsetFor(country)
		name := fmt.Sprintf("AS%d-%s-%s", uint32(asn), country, a)
		var buildCfg func(isp.Severity) isp.Config
		switch {
		case country == "JP" && a >= archLow:
			// Japanese congestion rides the legacy PPPoE plant (§4).
			buildCfg = func(s isp.Severity) isp.Config {
				return isp.NewLegacyPPPoE(name, asn, country, utc, v4, v6, jpLegacySeverity(s))
			}
		case a == archFlat:
			// Flat ASes have genuinely demand-insensitive last miles:
			// well-provisioned gear whose residual diurnal wiggle sits
			// below the measurement noise floor, so their prominent
			// frequency is noise-driven and spreads across the
			// spectrum (Fig. 3, top).
			buildCfg = func(s isp.Severity) isp.Config {
				cfg := isp.NewEyeball(name, asn, country, utc, v4, v6, s)
				cfg.PeakUtilMean = 0.45
				cfg.Queue.ServiceMs = 0.05
				return cfg
			}
		default:
			buildCfg = func(s isp.Severity) isp.Config {
				return isp.NewEyeball(name, asn, country, utc, v4, v6, s)
			}
		}
		network, err := isp.New(buildCfg(sev))
		if err != nil {
			return nil, err
		}
		probes := drawProbeCount(a, rng, cfg.MaxProbesPerAS)
		users := drawUsers(a, i, rng)
		w.ASes = append(w.ASes, &ASInfo{
			Index:        i,
			Network:      network,
			BaseSeverity: sev,
			Archetype:    a,
			BaseProbes:   probes,
			Users:        users,
			buildCfg:     buildCfg,
		})
		estimates = append(estimates, apnic.Estimate{ASN: asn, CC: country, Users: users})
		if err := rib.Announce(v4, asn); err != nil {
			return nil, err
		}
		if err := rib.Announce(v6, asn); err != nil {
			return nil, err
		}
	}

	// 4. Background filler ASes so ranking buckets beyond the monitored
	// set are populated (ranks past 10k exist in APNIC's view).
	const filler = 14000
	for i := 0; i < filler; i++ {
		users := int64(200_000_000 / (float64(i) + 20))
		users = int64(float64(users) * (0.5 + rng.Float64()))
		estimates = append(estimates, apnic.Estimate{
			ASN:   bgp.ASN(100_000 + i),
			CC:    countries[rng.Intn(len(countries))],
			Users: users,
		})
	}
	ranking, err := apnic.NewRanking(estimates)
	if err != nil {
		return nil, err
	}
	w.Ranking = ranking
	w.RIB = rib
	return w, nil
}

// worldSalt separates world-construction randomness from the measurement
// randomness derived from the same seed.
const worldSalt = 0x1d0c0de

// assignCountries places each AS in a country. Reported-class ASes are
// deliberately distributed (Japan-heavy Severe share per §3.2); the rest
// follow Atlas's deployment bias encoded in the countries ordering.
func assignCountries(arch []archetype, rng *rand.Rand) []string {
	cc := make([]string, len(arch))
	// Deliberate placements, consumed in order per archetype.
	placements := map[archetype][]string{
		archSevere: {"JP", "JP", "JP", "US", "BR", "IN", "TR", "AR", "PH", "EG", "ID"},
		archMildHigh: {"US", "IT", "GR", "ZA", "CO", "VN", "RO", "MY", "TH", "CL",
			"PK", "UA", "KE", "RS"},
		archMild: {"GB", "ES", "PL", "MA", "HU", "PT"},
		archLow: {"US", "FR", "AU", "CA", "MX", "LK", "NG", "BG",
			"HR", "GE", "BD", "PE", "TN", "KZ", "UY", "SI"},
		// Japan's two borderline ASes sit just under the Low threshold:
		// reported in some normal periods, reliably reported under
		// COVID — together with the three Severe ones this yields the
		// paper's "5 of the top 10 monitored Japanese ASes reported at
		// least once, 3 constantly".
		archNearMiss: {"JP", "JP"},
	}
	used := map[archetype]int{}
	// Weighted draw for everything else: weight decays with country
	// index, leaving a long tail of singleton countries.
	weights := make([]float64, len(countries))
	total := 0.0
	for i := range countries {
		weights[i] = 12.0 / (float64(i) + 4)
		total += weights[i]
	}
	draw := func() string {
		x := rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return countries[i]
			}
		}
		return countries[len(countries)-1]
	}
	// Near-miss ASes spread across distinct countries so the COVID wave
	// of new reports is geographically broad.
	nearMissIdx := 0
	for i, a := range arch {
		if list, ok := placements[a]; ok && used[a] < len(list) {
			cc[i] = list[used[a]]
			used[a]++
			continue
		}
		if a == archNearMiss {
			cc[i] = countries[(7*nearMissIdx+11)%len(countries)]
			nearMissIdx++
			continue
		}
		cc[i] = draw()
	}
	return cc
}

// utcOffsetFor maps a country to a representative UTC offset for its
// subscribers' diurnal cycle.
func utcOffsetFor(cc string) float64 {
	switch cc {
	case "JP", "KR":
		return 9
	case "CN", "TW", "HK", "SG", "MY", "PH", "AU":
		return 8
	case "ID", "TH", "VN", "MN":
		return 7
	case "BD", "KZ", "KG":
		return 6
	case "PK", "UZ":
		return 5
	case "IN", "LK", "NP":
		return 5.5
	case "AE", "GE", "AM", "AZ":
		return 4
	case "RU", "TR", "SA", "IQ", "KE", "BY", "MD", "IR":
		return 3
	case "GR", "RO", "BG", "UA", "FI", "EE", "LV", "LT", "IL", "JO", "LB", "CY", "EG", "ZA":
		return 2
	case "GB", "IE", "PT", "MA", "TN", "NG", "IS", "FO", "GI":
		return 0
	case "BR", "AR", "UY", "GL":
		return -3
	case "CL", "VE", "BM":
		return -4
	case "US", "CA", "PE", "CO", "EC", "PA", "MX", "CR":
		return -5
	case "NZ":
		return 12
	default:
		return 1 // central Europe
	}
}

// jpLegacySeverity rescales the generic severity band onto the legacy
// PPPoE archetype, whose severity→utilisation mapping is steeper
// (0.7 + 1.7·s versus 0.55 + 1.1·s): solve for the severity that yields
// the same peak utilisation.
func jpLegacySeverity(s isp.Severity) isp.Severity {
	util := 0.55 + 1.1*float64(s)
	return isp.Severity((util - 0.7) / 1.7)
}

// drawProbeCount draws a per-AS probe deployment: every monitored AS has
// at least 3 probes (the survey's inclusion bar), large eyeballs more,
// capped at maxProbes.
func drawProbeCount(a archetype, rng *rand.Rand, maxProbes int) int {
	n := 3 + int(netsim.Lognormal(rng, 1.0, 0.9))
	if a >= archLow {
		// Reported ASes are predominantly large eyeballs with bigger
		// deployments.
		n += 4 + rng.Intn(8)
	}
	if n > maxProbes {
		n = maxProbes
	}
	return n
}

// drawUsers draws the APNIC-style user estimate. Reported-class ASes are
// large eyeballs (the paper's Fig. 4: congestion concentrates in the top
// 1000), the rest follow a heavy-tailed spread.
func drawUsers(a archetype, i int, rng *rand.Rand) int64 {
	switch {
	case a >= archMild:
		// Large eyeballs, but spread across the top ~2000 ranks rather
		// than only the top 100 (Fig. 4 shows congestion down through
		// the 101-1k bucket).
		return int64(300_000 + rng.Intn(30_000_000))
	case a >= archNearMiss:
		return int64(150_000 + rng.Intn(8_000_000))
	default:
		u := min(netsim.Lognormal(rng, 11, 2.2), 40_000_000) // median ≈ 60k users
		return int64(u) + 50
	}
}

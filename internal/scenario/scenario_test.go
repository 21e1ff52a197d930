package scenario

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/ipnet"
	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

func TestPeriods(t *testing.T) {
	long := LongitudinalPeriods()
	if len(long) != 6 {
		t.Fatalf("longitudinal periods = %d", len(long))
	}
	labels := []string{"2018-03", "2018-06", "2018-09", "2019-03", "2019-06", "2019-09"}
	for i, p := range long {
		if p.Label != labels[i] {
			t.Errorf("period %d = %q, want %q", i, p.Label, labels[i])
		}
		if p.Days() != 15 {
			t.Errorf("period %s spans %d days, want 15", p.Label, p.Days())
		}
		if p.COVIDShift != 0 {
			t.Errorf("period %s has COVID shift", p.Label)
		}
	}
	covid := COVIDPeriod()
	if covid.Label != "2020-04" || covid.COVIDShift != 1 {
		t.Fatalf("covid period = %+v", covid)
	}
	if len(AllPeriods()) != 7 {
		t.Fatalf("all periods = %d", len(AllPeriods()))
	}
	tokyo := TokyoPeriod()
	if tokyo.Days() != 8 {
		t.Fatalf("tokyo period days = %d, want 8 (Sep 19-26)", tokyo.Days())
	}
}

func TestPeriodIndexDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range AllPeriods() {
		idx := PeriodIndex(p)
		if prev, dup := seen[idx]; dup {
			t.Fatalf("periods %s and %s share index %d", prev, p.Label, idx)
		}
		seen[idx] = p.Label
	}
}

func TestPrefixAllocator(t *testing.T) {
	a := &prefixAllocator{}
	seen := map[netip.Prefix]bool{}
	for i := 0; i < 700; i++ {
		p, err := a.NextV4()
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("duplicate prefix %v", p)
		}
		seen[p] = true
		if p.Bits() != 16 {
			t.Fatalf("prefix %v not a /16", p)
		}
		if ipnet.IsPrivate(p.Addr()) {
			t.Fatalf("allocated private prefix %v", p)
		}
		first := p.Addr().As4()[0]
		if reserved8(int(first)) {
			t.Fatalf("allocated reserved space %v", p)
		}
	}
	for i := 0; i < 700; i++ {
		p, err := a.NextV6()
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("duplicate v6 prefix %v", p)
		}
		seen[p] = true
		if p.Bits() != 48 {
			t.Fatalf("prefix %v not a /48", p)
		}
	}
}

func TestCountryListSize(t *testing.T) {
	if len(countries) != 98 {
		t.Fatalf("countries = %d, want 98 (§3)", len(countries))
	}
	seen := map[string]bool{}
	for _, cc := range countries {
		if len(cc) != 2 {
			t.Fatalf("bad country code %q", cc)
		}
		if seen[cc] {
			t.Fatalf("duplicate country %q", cc)
		}
		seen[cc] = true
	}
}

// smallWorld builds a reduced world that still contains every archetype.
func smallWorld(t *testing.T) *World {
	t.Helper()
	cfg := DefaultConfig(42)
	cfg.ASes = 100
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorldShape(t *testing.T) {
	w := smallWorld(t)
	if len(w.ASes) != 100 {
		t.Fatalf("ASes = %d", len(w.ASes))
	}
	if w.Ranking == nil || w.RIB == nil {
		t.Fatal("missing ranking or RIB")
	}
	// Every AS resolves through the RIB.
	for _, a := range w.ASes {
		asn, err := w.RIB.OriginOf(a.Network.Prefix.Addr().Next())
		if err != nil || asn != a.Network.ASN {
			t.Fatalf("%s: RIB lookup = %v, %v", a.Network.Name, asn, err)
		}
		if _, ok := w.Ranking.Rank(a.Network.ASN); !ok {
			t.Fatalf("%s missing from ranking", a.Network.Name)
		}
		if a.BaseProbes < 3 {
			t.Fatalf("%s has %d probes (<3)", a.Network.Name, a.BaseProbes)
		}
	}
	// Archetype counts are exact for the reported classes.
	counts := map[archetype]int{}
	for _, a := range w.ASes {
		counts[a.Archetype]++
	}
	if counts[archSevere] != severeCount || counts[archMildHigh] != mildHighCount ||
		counts[archMild] != mildCount || counts[archLow] != lowCount ||
		counts[archNearMiss] != nearMissCount {
		t.Fatalf("archetype counts = %v", counts)
	}
}

func TestBuildWorldJapanPlacement(t *testing.T) {
	w := smallWorld(t)
	jpSevere, jpNearMiss := 0, 0
	for _, a := range w.ASes {
		if a.Network.CC != "JP" {
			continue
		}
		switch a.Archetype {
		case archSevere:
			jpSevere++
		case archNearMiss:
			jpNearMiss++
		}
	}
	if jpSevere != 3 {
		t.Fatalf("JP severe ASes = %d, want 3 (§3.2: constantly reported)", jpSevere)
	}
	if jpNearMiss < 2 {
		t.Fatalf("JP near-miss ASes = %d, want >= 2 (sometimes-reported)", jpNearMiss)
	}
}

func TestBuildWorldDeterministic(t *testing.T) {
	a := smallWorld(t)
	b := smallWorld(t)
	for i := range a.ASes {
		if a.ASes[i].BaseSeverity != b.ASes[i].BaseSeverity ||
			a.ASes[i].Network.CC != b.ASes[i].Network.CC ||
			a.ASes[i].BaseProbes != b.ASes[i].BaseProbes {
			t.Fatalf("AS %d differs between identical builds", i)
		}
	}
}

func TestBuildWorldErrors(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ASes = 20
	if _, err := Build(cfg); err == nil {
		t.Fatal("want error for too few ASes")
	}
}

func TestProbesForGrowsOverTime(t *testing.T) {
	w := smallWorld(t)
	early, late := 0, 0
	for _, a := range w.ASes[:20] {
		p1, err := w.ProbesFor(a, LongitudinalPeriods()[0])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := w.ProbesFor(a, COVIDPeriod())
		if err != nil {
			t.Fatal(err)
		}
		early += len(p1)
		late += len(p2)
	}
	if late <= early {
		t.Fatalf("deployment did not grow: %d -> %d", early, late)
	}
}

func TestProbesWiredIntoWorld(t *testing.T) {
	w := smallWorld(t)
	a := w.ASes[0]
	probes, err := w.ProbesFor(a, LongitudinalPeriods()[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("no probes")
	}
	ids := map[int]bool{}
	for _, p := range probes {
		if ids[p.ID] {
			t.Fatalf("duplicate probe ID %d", p.ID)
		}
		ids[p.ID] = true
		if p.ASN != a.Network.ASN {
			t.Fatal("probe in wrong AS")
		}
		if !a.Network.Prefix.Contains(p.PublicAddr) {
			t.Fatalf("probe public address %v outside AS prefix", p.PublicAddr)
		}
		if !ipnet.IsPrivate(p.GatewayAddr) || !ipnet.IsPublic(p.EdgeAddr) {
			t.Fatal("probe last-mile boundary addresses are wrong")
		}
		asn, err := w.RIB.OriginOf(p.PublicAddr)
		if err != nil || asn != a.Network.ASN {
			t.Fatalf("probe %d does not resolve to its AS via RIB", p.ID)
		}
	}
}

func TestSimulateProbeDelayFeedsPipeline(t *testing.T) {
	w := smallWorld(t)
	p := LongitudinalPeriods()[5]
	// Find a severe AS: its signal must classify Severe.
	var severe *ASInfo
	for _, a := range w.ASes {
		if a.Archetype == archSevere {
			severe = a
			break
		}
	}
	cls, err := w.surveyAS(severe, p)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Probes < 3 {
		t.Fatalf("contributing probes = %d", cls.Probes)
	}
	if cls.Signal.Len() != 720 {
		t.Fatalf("signal bins = %d, want 720 (15 days of 30-min bins)", cls.Signal.Len())
	}
	if cls.Class != core.Severe {
		t.Fatalf("severe AS classified %v (amp %.2f)", cls.Class, cls.DailyAmplitude)
	}
	if !cls.IsDaily {
		t.Fatal("severe AS peak should be daily")
	}
}

func TestFlatASClassifiesNone(t *testing.T) {
	w := smallWorld(t)
	p := LongitudinalPeriods()[5]
	var flat *ASInfo
	for _, a := range w.ASes {
		if a.Archetype == archFlat {
			flat = a
			break
		}
	}
	cls, err := w.surveyAS(flat, p)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Class != core.None {
		t.Fatalf("flat AS classified %v (amp %.2f)", cls.Class, cls.DailyAmplitude)
	}
}

func TestPeriodBins(t *testing.T) {
	start := LongitudinalPeriods()[0].Start
	if n := LongitudinalPeriods()[0].Bins(); n != 720 {
		t.Fatalf("15-day period has %d bins, want 720", n)
	}
	// A partial last bin counts.
	if n := (Period{Start: start, End: start.Add(45 * time.Minute)}).Bins(); n != 2 {
		t.Fatalf("45-minute period has %d bins, want 2", n)
	}
}

func TestSimulateProbeDelayDeterministic(t *testing.T) {
	w := smallWorld(t)
	p := LongitudinalPeriods()[0]
	probes, err := w.ProbesFor(w.ASes[0], p)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [2]bytes.Buffer
	for i := range snaps {
		e := engine.New(engine.Options{})
		if err := SimulateProbeDelay(e, probes[0], p, 4, w.Seed); err != nil {
			t.Fatal(err)
		}
		if e.Stats().Ingested == 0 {
			t.Fatal("no traceroutes simulated")
		}
		if err := e.Snapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatal("two runs of one probe observed different bins")
	}
}

func TestFastPathMatchesFullTraceroutePath(t *testing.T) {
	// The fast path and the full Trace+Estimate path must produce
	// statistically indistinguishable per-bin medians for the same
	// probe. Compare period medians of the two estimates.
	w := smallWorld(t)
	p := Period{Label: "mini", Start: LongitudinalPeriods()[5].Start,
		End: LongitudinalPeriods()[5].Start.AddDate(0, 0, 2)}
	probes, err := w.ProbesFor(w.ASes[0], p)
	if err != nil {
		t.Fatal(err)
	}
	probe := probes[0]

	fast := engine.New(engine.Options{})
	if err := SimulateProbeDelay(fast, probe, p, 6, w.Seed); err != nil {
		t.Fatal(err)
	}
	fastQD, err := fast.ProbeDelays(probe.ASN, p.Start, p.Bins())
	if err != nil {
		t.Fatal(err)
	}

	// Full path through the Atlas engine.
	full := engine.New(engine.Options{})
	eng := newTestEngine(w.Seed)
	err = eng.Run(probe, p.Start, p.End, func(r *traceroute.Result) error {
		if samples, _, ok := lastmile.Estimate(r); ok {
			full.Observe(probe.ASN, r.ProbeID, r.Timestamp, samples)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fullQD, err := full.ProbeDelays(probe.ASN, p.Start, p.Bins())
	if err != nil {
		t.Fatal(err)
	}

	// Compare the medians of the two queuing-delay distributions.
	fm := medianOf(fastQD[0].Values)
	um := medianOf(fullQD[0].Values)
	if diff := fm - um; diff > 0.3 || diff < -0.3 {
		t.Fatalf("fast path median %v vs full path %v", fm, um)
	}
}

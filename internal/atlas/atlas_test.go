package atlas

import (
	"net/netip"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/netsim"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

func testDevice(peak float64) *netsim.AggregationDevice {
	return &netsim.AggregationDevice{
		ID:              9,
		Profile:         netsim.DefaultProfile(9),
		BaseUtilization: 0.2,
		PeakUtilization: peak,
		Queue:           netsim.QueueModel{ServiceMs: 0.12, BufferMs: 6.5, JitterFrac: 0.3},
		AccessMbps:      50,
	}
}

func testProbe(id int, peak float64) *Probe {
	return &Probe{
		ID:           id,
		Version:      3,
		ASN:          64500,
		CC:           "JP",
		City:         "Tokyo",
		PublicAddr:   netip.MustParseAddr("20.1.0.50"),
		LANAddr:      netip.MustParseAddr("192.168.1.10"),
		GatewayAddr:  netip.MustParseAddr("192.168.1.1"),
		EdgeAddr:     netip.MustParseAddr("20.1.0.1"),
		CoreAddr:     netip.MustParseAddr("20.1.255.1"),
		Device:       testDevice(peak),
		EdgeBaseMs:   1.8,
		Availability: 1.0,
	}
}

var testTarget = Target{
	Addr:     netip.MustParseAddr("198.41.0.4"),
	PathMs:   30,
	TailHops: 4,
}

func TestRouteToShape(t *testing.T) {
	p := testProbe(1, 0.5)
	r := p.RouteTo(testTarget)
	// gateway + edge + core + 4 tail hops.
	if r.Len() != 7 {
		t.Fatalf("route length = %d, want 7", r.Len())
	}
	if r.Hops[0].Addr != p.GatewayAddr {
		t.Fatal("first hop must be the gateway")
	}
	if r.Hops[1].Addr != p.EdgeAddr {
		t.Fatal("second hop must be the ISP edge")
	}
	if len(r.Hops[1].Sources) != 1 {
		t.Fatal("edge hop must carry the aggregation device")
	}
	if r.Hops[r.Len()-1].Addr != testTarget.Addr {
		t.Fatal("last hop must be the target")
	}
}

func TestRouteToNoDevice(t *testing.T) {
	p := testProbe(1, 0.5)
	p.Device = nil
	r := p.RouteTo(testTarget)
	if len(r.Hops[1].Sources) != 0 {
		t.Fatal("nil device should add no delay source")
	}
}

func TestRouteToMinTail(t *testing.T) {
	p := testProbe(1, 0.5)
	r := p.RouteTo(Target{Addr: netip.MustParseAddr("8.8.8.8"), PathMs: 10, TailHops: 0})
	if r.Len() != 4 {
		t.Fatalf("route length = %d, want 4 (tail clamped to 1)", r.Len())
	}
}

func TestTraceProducesValidAtlasResult(t *testing.T) {
	p := testProbe(7, 0.5)
	at := time.Date(2019, 9, 19, 12, 0, 0, 0, time.UTC)
	res, err := p.Trace(5001, testTarget, at, netsim.DerivedRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.ProbeID != 7 || res.MsmID != 5001 || res.AF != 4 {
		t.Fatalf("result header = %+v", res)
	}
	if !res.ReachedDst() {
		t.Fatal("trace should reach its destination")
	}
	for _, h := range res.Hops {
		if len(h.Replies) != 3 {
			t.Fatalf("hop %d has %d replies, want 3", h.Hop, len(h.Replies))
		}
	}
	// Must round-trip through the Atlas JSON codec.
	data, err := traceroute.MarshalAtlas(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traceroute.ParseAtlas(data); err != nil {
		t.Fatal(err)
	}
}

func TestTraceFeedsLastmileEstimator(t *testing.T) {
	p := testProbe(7, 0.5)
	at := time.Date(2019, 9, 19, 19, 0, 0, 0, time.UTC) // off-peak
	res, err := p.Trace(5001, testTarget, at, netsim.DerivedRand(2))
	if err != nil {
		t.Fatal(err)
	}
	samples, seg, ok := lastmile.Estimate(res)
	if !ok {
		t.Fatal("estimator found no last-mile segment")
	}
	if seg.PrivateAddr != p.GatewayAddr || seg.PublicAddr != p.EdgeAddr {
		t.Fatalf("segment = %+v", seg)
	}
	if len(samples) != 9 {
		t.Fatalf("samples = %d, want 9", len(samples))
	}
	// Off-peak: last-mile delta should be near the edge base RTT.
	for _, s := range samples {
		if s < 0.5 || s > 5 {
			t.Fatalf("sample %v ms implausible off-peak", s)
		}
	}
}

func TestTraceCongestionVisibleInSamples(t *testing.T) {
	p := testProbe(7, 1.6)                                 // saturated at peak
	peakT := time.Date(2019, 9, 19, 12, 0, 0, 0, time.UTC) // 21:00 JST
	offT := time.Date(2019, 9, 19, 19, 0, 0, 0, time.UTC)  // 04:00 JST
	avgSample := func(at time.Time, salt uint64) float64 {
		sum, n := 0.0, 0
		for k := uint64(0); k < 50; k++ {
			res, err := p.Trace(5001, testTarget, at, netsim.DerivedRand(salt, k))
			if err != nil {
				t.Fatal(err)
			}
			if samples, _, ok := lastmile.Estimate(res); ok {
				for _, s := range samples {
					sum += s
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no samples")
		}
		return sum / float64(n)
	}
	peak := avgSample(peakT, 3)
	off := avgSample(offT, 4)
	if peak-off < 3 {
		t.Fatalf("peak last-mile %v vs off-peak %v: congestion invisible", peak, off)
	}
}

func TestBuiltinMeasurementsShape(t *testing.T) {
	ms := BuiltinMeasurements()
	if len(ms) != 22 {
		t.Fatalf("built-ins = %d, want 22 (§2)", len(ms))
	}
	if got := TraceroutesPerWindow(ms); got != 24 {
		t.Fatalf("traceroutes per 30-min window = %d, want 24 (§2.1)", got)
	}
	random := 0
	for _, m := range ms {
		if m.RandomTarget {
			random++
			if m.Interval != 15*time.Minute {
				t.Fatal("random built-ins run every 15 minutes")
			}
		} else {
			if m.Interval != 30*time.Minute {
				t.Fatal("fixed built-ins run every 30 minutes")
			}
			if !m.Target.Addr.IsValid() {
				t.Fatal("fixed built-in without target")
			}
		}
	}
	if random != 2 {
		t.Fatalf("random built-ins = %d, want 2", random)
	}
}

func TestEngineRunProducesExpectedVolume(t *testing.T) {
	e := NewEngine(11)
	p := testProbe(7, 0.5)
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	end := start.Add(2 * time.Hour)
	count := 0
	err := e.Run(p, start, end, func(r *traceroute.Result) error {
		count++
		return r.Validate()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 24 traceroutes per 30 minutes over 2 hours = 96.
	if count != 96 {
		t.Fatalf("results = %d, want 96", count)
	}
}

func TestEngineDeterministic(t *testing.T) {
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Hour)
	collect := func(seed uint64) []string {
		e := NewEngine(seed)
		p := testProbe(7, 1.2)
		var out []string
		e.Run(p, start, end, func(r *traceroute.Result) error {
			data, err := traceroute.MarshalAtlas(r)
			if err != nil {
				return err
			}
			out = append(out, string(data))
			return nil
		})
		return out
	}
	a, b := collect(5), collect(5)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs between identical runs", i)
		}
	}
	c := collect(6)
	diff := false
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestEngineOfflineWindowsDropResults(t *testing.T) {
	e := NewEngine(11)
	p := testProbe(7, 0.5)
	p.Availability = 0.5
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	end := start.Add(24 * time.Hour)
	count := 0
	if err := e.Run(p, start, end, func(*traceroute.Result) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	full := 24 * 48 // 24 per 30-min over 24h
	if count >= full*8/10 || count == 0 {
		t.Fatalf("results = %d with 50%% availability (full = %d)", count, full)
	}
}

func TestEngineErrors(t *testing.T) {
	e := NewEngine(1)
	if err := e.Run(nil, time.Now(), time.Now().Add(time.Hour), nil); err == nil {
		t.Fatal("nil probe must error")
	}
	p := testProbe(1, 0.5)
	now := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	if err := e.Run(p, now, now, nil); err == nil {
		t.Fatal("empty range must error")
	}
	e.Measurements = []Measurement{{MsmID: 1, Interval: 0}}
	if err := e.Run(p, now, now.Add(time.Hour), func(*traceroute.Result) error { return nil }); err == nil {
		t.Fatal("zero interval must error")
	}
}

func TestEngineEmitErrorStops(t *testing.T) {
	e := NewEngine(11)
	p := testProbe(7, 0.5)
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	calls := 0
	err := e.Run(p, start, start.Add(time.Hour), func(*traceroute.Result) error {
		calls++
		return errSentinel
	})
	if err != errSentinel {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error", calls)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestV1ProbesAreNoisier(t *testing.T) {
	v3 := testProbe(1, 0.5)
	v1 := testProbe(2, 0.5)
	v1.Version = 1
	if v1.noiseMs() <= v3.noiseMs() {
		t.Fatal("v1 probes should be noisier than v3")
	}
}

func TestOnlineAtDeterministic(t *testing.T) {
	p := testProbe(1, 0.5)
	p.Availability = 0.5
	at := time.Date(2019, 9, 19, 3, 7, 0, 0, time.UTC)
	if p.OnlineAt(at, 9) != p.OnlineAt(at, 9) {
		t.Fatal("OnlineAt not deterministic")
	}
	// Same 30-minute window, same verdict.
	if p.OnlineAt(at, 9) != p.OnlineAt(at.Add(10*time.Minute), 9) {
		t.Fatal("availability must be stable within a window")
	}
}

func BenchmarkEngineProbeDay(b *testing.B) {
	e := NewEngine(11)
	p := testProbe(7, 1.2)
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	end := start.Add(24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p, start, end, func(*traceroute.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBuiltinMeasurementsV6(t *testing.T) {
	ms := BuiltinMeasurementsV6()
	if len(ms) != 22 {
		t.Fatalf("v6 built-ins = %d, want 22", len(ms))
	}
	if got := TraceroutesPerWindow(ms); got != 24 {
		t.Fatalf("traceroutes per window = %d, want 24", got)
	}
	ids := map[int]bool{}
	for _, m := range ms {
		if ids[m.MsmID] {
			t.Fatalf("duplicate msm id %d", m.MsmID)
		}
		ids[m.MsmID] = true
		if !m.RandomTarget && !m.Target.Addr.Is6() {
			t.Fatalf("msm %d target %v is not IPv6", m.MsmID, m.Target.Addr)
		}
	}
	// v4 and v6 schedules must not share measurement ids.
	for _, m4 := range BuiltinMeasurements() {
		if ids[m4.MsmID] {
			t.Fatalf("msm id %d shared between families", m4.MsmID)
		}
	}
}

func TestEngineV6Probe(t *testing.T) {
	dev := testDevice(0.5)
	p := &Probe{
		ID: 99, Version: 3, ASN: 64500, CC: "JP",
		PublicAddr:   netip.MustParseAddr("2001:db8:1::50"),
		LANAddr:      netip.MustParseAddr("fd00::10"),
		GatewayAddr:  netip.MustParseAddr("fd00::1"),
		EdgeAddr:     netip.MustParseAddr("2001:db8:1::1"),
		CoreAddr:     netip.MustParseAddr("2001:db8:1::ff"),
		Device:       dev,
		EdgeBaseMs:   1.8,
		Availability: 1,
	}
	e := &Engine{Seed: 3, Measurements: BuiltinMeasurementsV6()}
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	count := 0
	err := e.Run(p, start, start.Add(time.Hour), func(r *traceroute.Result) error {
		count++
		if r.AF != 6 {
			t.Fatalf("result AF = %d, want 6", r.AF)
		}
		if !r.DstAddr.Is6() {
			t.Fatalf("v6 probe got v4 target %v", r.DstAddr)
		}
		samples, seg, ok := lastmile.Estimate(r)
		if !ok {
			t.Fatal("v6 last-mile segment not found")
		}
		if !seg.PrivateAddr.Is6() || !seg.PublicAddr.Is6() {
			t.Fatalf("segment families wrong: %+v", seg)
		}
		if len(samples) == 0 {
			t.Fatal("no samples")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 48 {
		t.Fatalf("results = %d, want 48 (24 per 30-min window)", count)
	}
}

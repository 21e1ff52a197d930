package cdn

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// randomLogDay builds a pseudo-random day of log entries: nIPs clients
// issuing nEntries requests with mixed sizes, durations, and cache
// outcomes, so both the accept and reject paths carry load.
func randomLogDay(rng *rand.Rand, nIPs, nEntries int) []LogEntry {
	ips := make([]netip.Addr, nIPs)
	for i := range ips {
		ips[i] = netip.MustParseAddr(fmt.Sprintf("20.1.%d.%d", i/250, 1+i%250))
	}
	entries := make([]LogEntry, nEntries)
	for i := range entries {
		cache := Hit
		if rng.Intn(5) == 0 {
			cache = Miss
		}
		entries[i] = LogEntry{
			Timestamp:  start.Add(time.Duration(rng.Intn(24*3600*1000)) * time.Millisecond),
			ClientIP:   ips[rng.Intn(len(ips))],
			Bytes:      int64(rng.Intn(10_000_000)),
			DurationMs: float64(rng.Intn(5000)) + rng.Float64(),
			Status:     200,
			Cache:      cache,
		}
	}
	return entries
}

func mergeTestEstimator(t testing.TB) *Estimator {
	t.Helper()
	e, err := NewEstimator(start, start.AddDate(0, 0, 1), ThroughputOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// shardByIP splits entries across k estimators keyed by client address,
// so each IP's accumulator sees its adds in stream order within one
// shard — the sharding discipline a map-reduce log replay must use for
// the merge to be bit-exact (float sums are not associative across
// arbitrary splits of one IP's requests).
func shardByIP(t testing.TB, entries []LogEntry, k int) []*Estimator {
	t.Helper()
	shards := make([]*Estimator, k)
	for i := range shards {
		shards[i] = mergeTestEstimator(t)
	}
	for i := range entries {
		h := entries[i].ClientIP.As16()
		shards[(int(h[14])*31+int(h[15]))%k].Add(&entries[i])
	}
	return shards
}

func sameSeriesBits(t *testing.T, label string, a, b *timeseries.Series) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: length %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("%s: bin %d: %v vs %v", label, i, a.Values[i], b.Values[i])
		}
	}
}

// TestEstimatorMergeIsShardedReplay is the map-reduce property for the
// CDN side, as quick-checked properties over random log days: an
// IP-sharded split replayed through K estimators and merged is
// bit-identical to a single estimator fed the whole stream, and the
// merge commutes and associates.
func TestEstimatorMergeIsShardedReplay(t *testing.T) {
	property := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw)%7
		entries := randomLogDay(rng, 40, 200+int(nRaw))

		single := mergeTestEstimator(t)
		for i := range entries {
			single.Add(&entries[i])
		}

		merged := shardByIP(t, entries, k)
		m := merged[0]
		for _, o := range merged[1:] {
			m.Merge(o)
		}
		if m.Accepted != single.Accepted || m.Rejected != single.Rejected {
			return false
		}
		if m.UniqueIPs() != single.UniqueIPs() {
			return false
		}
		got, want := m.Series(1), single.Series(1)
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	entries := randomLogDay(rng, 30, 400)

	ab := shardByIP(t, entries, 2)
	ab[0].Merge(ab[1])
	ba := shardByIP(t, entries, 2)
	ba[1].Merge(ba[0])
	sameSeriesBits(t, "a⊕b vs b⊕a", ab[0].Series(1), ba[1].Series(1))
	if ab[0].Accepted != ba[1].Accepted || ab[0].Rejected != ba[1].Rejected {
		t.Fatalf("counters differ: %d/%d vs %d/%d",
			ab[0].Accepted, ab[0].Rejected, ba[1].Accepted, ba[1].Rejected)
	}
}

func TestEstimatorMergeAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	entries := randomLogDay(rng, 30, 400)

	// (a⊕b)⊕c
	left := shardByIP(t, entries, 3)
	left[0].Merge(left[1])
	left[0].Merge(left[2])
	// a⊕(b⊕c)
	right := shardByIP(t, entries, 3)
	right[1].Merge(right[2])
	right[0].Merge(right[1])
	sameSeriesBits(t, "(a⊕b)⊕c vs a⊕(b⊕c)", left[0].Series(1), right[0].Series(1))
}

package engine

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// add appends samples to c as Observe does.
func (c *cell) add(vs ...float64) {
	c.samples = append(c.samples, vs...)
	c.groups++
	c.sorted = false
}

// Property: a bin's median is bit-for-bit identical to the
// selection-based stats.Median over the same multiset, for any finite
// sample set — the identity the batch=replay guarantee rests on.
func TestCellMedianMatchesStatsMedian(t *testing.T) {
	f := func(raw []float64) bool {
		var c cell
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e6) // physical delay range, like the pipeline
			vals = append(vals, v)
			c.add(v)
		}
		got, ok := c.median()
		want, err := stats.Median(vals)
		if err != nil {
			return !ok && len(c.samples) == 0
		}
		return ok && math.Float64bits(got) == math.Float64bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median is permutation-invariant — the foundation of the
// out-of-order ingestion guarantee.
func TestCellPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 257)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	var ref cell
	ref.add(vals...)
	want, _ := ref.median()
	for trial := 0; trial < 20; trial++ {
		var c cell
		for _, i := range rng.Perm(len(vals)) {
			c.add(vals[i])
		}
		got, ok := c.median()
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: median %v, want %v", trial, got, want)
		}
	}
}

// TestCellRunningMedian reads the median after every append: each read
// sorts what the appends since the last one left unsorted.
func TestCellRunningMedian(t *testing.T) {
	stream := []float64{5, 1, 9, 3, 3, -2, 7, 0}
	var c cell
	for i, v := range stream {
		c.add(v)
		got, ok := c.median()
		if !ok {
			t.Fatalf("prefix %d: no median", i+1)
		}
		want, err := stats.Median(stream[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prefix %d: median %v, want %v", i+1, got, want)
		}
	}
}

// TestCellGroups pins the unit of the discard rule: every accepted
// observation is one group, with or without samples.
func TestCellGroups(t *testing.T) {
	e := New(Options{})
	e.Observe(1, 1, t0, []float64{1, 2, 3})
	e.Observe(1, 1, t0.Add(time.Minute), []float64{4})
	e.Observe(1, 1, t0.Add(2*time.Minute), nil)
	c := &e.shards[0].ases[1].probes[1].cells[0]
	if c.groups != 3 {
		t.Fatalf("groups = %d, want 3", c.groups)
	}
	if st := e.Stats(); st.Bins != 1 || st.Samples != 4 {
		t.Fatalf("stats = %+v, want 1 bin of 4 samples", st)
	}
	if m, ok := (&cell{}).median(); ok {
		t.Fatalf("empty bin reports median %v", m)
	}
}

// TestEngineSnapshotOrderInvariant feeds two engines the same
// observations in different orders, across bins and within them: their
// snapshots are byte-identical, because a bin is the multiset of its
// samples and is written in one canonical layout.
func TestEngineSnapshotOrderInvariant(t *testing.T) {
	type obs struct {
		probe   int
		at      time.Time
		samples []float64
	}
	rng := rand.New(rand.NewSource(3))
	var all []obs
	for i := 0; i < 400; i++ {
		s := make([]float64, 1+rng.Intn(9))
		for j := range s {
			s[j] = rng.Float64() * 10
		}
		all = append(all, obs{1 + rng.Intn(3), t0.Add(time.Duration(rng.Intn(6*3600)) * time.Second), s})
	}
	var snaps [2][]byte
	for k := range snaps {
		e := New(Options{})
		for _, i := range rng.Perm(len(all)) {
			e.Observe(64500, all[i].probe, all[i].at, all[i].samples)
		}
		// Read a median mid-way on one side only: sorting is not state.
		if k == 0 {
			if _, _, err := e.Signal(64500, t0, 12); err != nil {
				t.Fatal(err)
			}
		}
		snaps[k] = snapshotBytes(t, e)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("equal observations in different orders gave different snapshots")
	}
}

// writeBase frames one base stream holding a single probe's bins.
func writeBase(t testing.TB, bins []wire.SnapshotBin) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := wire.NewSnapshotWriter(&buf)
	if err := sw.WriteMeta(&wire.SnapshotMeta{BinWidth: 30 * time.Minute, MinTraceroutes: 3}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteProbe(&wire.SnapshotProbe{ASN: 64500, ProbeID: 1, Bins: bins}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineRestoreNonCanonicalHeap restores a base whose bins hold
// valid two-heap layouts other than the canonical one, as engines that
// kept live heaps wrote them. It gives the same signal bits as the
// canonical form of the same samples, and snapshots canonically.
func TestEngineRestoreNonCanonicalHeap(t *testing.T) {
	k0, k1 := t0.Unix(), t0.Add(30*time.Minute).Unix()
	heap := writeBase(t, []wire.SnapshotBin{
		{Key: k0, Groups: 3, Lo: []float64{2.25, 1.125, 2.25}, Hi: []float64{4.5, 9}},
		{Key: k1, Groups: 3, Lo: []float64{5, 1, 3}, Hi: []float64{6, 9, 7}},
	})
	canonical := writeBase(t, []wire.SnapshotBin{
		{Key: k0, Groups: 3, Lo: []float64{2.25, 2.25, 1.125}, Hi: []float64{4.5, 9}},
		{Key: k1, Groups: 3, Lo: []float64{5, 3, 1}, Hi: []float64{6, 7, 9}},
	})
	if bytes.Equal(heap, canonical) {
		t.Fatal("fixture layouts are identical")
	}
	var engines [2]*Engine
	for i, b := range [][]byte{heap, canonical} {
		e, err := Restore(bytes.NewReader(b), Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	sigHeap, _, err := engines[0].Signal(64500, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigCanon, _, err := engines[1].Signal(64500, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "signal", sigHeap, sigCanon)
	// Medians 2.25 and Midpoint(5, 6): the second bin sits 3.25 above.
	if sigHeap.Values[0] != 0 || sigHeap.Values[1] != 3.25 {
		t.Fatalf("signal = %v, want [0 3.25]", sigHeap.Values)
	}
	if got := snapshotBytes(t, engines[0]); !bytes.Equal(got, canonical) {
		t.Fatal("a restored non-canonical heap did not snapshot canonically")
	}
}

// TestEngineSparseKeysFollowPopulatedBins feeds an unbounded engine two
// records ten years apart: it holds two bins, and the second record
// costs one cell, not a run of bins across the gap (about 7 MB).
func TestEngineSparseKeysFollowPopulatedBins(t *testing.T) {
	e := New(Options{})
	e.Observe(1, 1, t0, []float64{1})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	e.Observe(1, 1, t0.AddDate(10, 0, 0), []float64{2})
	runtime.ReadMemStats(&ms)
	if grown := ms.TotalAlloc - before; grown >= 64<<10 {
		t.Fatalf("second record allocated %d bytes", grown)
	}
	if st := e.Stats(); st.Bins != 2 {
		t.Fatalf("bins = %d, want 2", st.Bins)
	}
}

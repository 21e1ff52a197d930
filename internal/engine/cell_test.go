package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/last-mile-congestion/lastmile/internal/stats"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// add appends samples to c as Observe does.
func (c *cell) add(vs ...float64) {
	c.samples = append(c.samples, vs...)
	c.groups++
	c.med = math.NaN()
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

// TestCellStoredMedianThroughLifecycle drives engines through random
// interleavings of every path that touches a cell's stored median:
// appends as Observe makes them, median reads, Snapshot, checkpoint
// base and segment writes, and Restore, both of the checkpoint (the
// canonical layout) and of a base whose bins hold older, non-canonical
// heap layouts. After every step each cell holds the samples it was
// fed, a stored median belongs to sorted samples, and the median a read
// returns equals stats.Median of the samples bit for bit. The read is
// made on a copy, so checking sorts nothing the next step would.
func TestCellStoredMedianThroughLifecycle(t *testing.T) {
	type ref struct {
		probe int
		key   int64
	}
	type bin struct {
		samples []float64
		groups  int
	}
	var staleRestored, canonicalRestores, heapRestores int
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(Options{})
		model := map[ref]*bin{}
		var ckpt []byte // the checkpoint stream; nil before its base
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(16); {
			case op < 8: // append
				probe := 1 + rng.Intn(3)
				at := t0.Add(time.Duration(rng.Intn(4*1800)) * time.Second)
				vs := make([]float64, rng.Intn(5))
				for i := range vs {
					vs[i] = float64(rng.Intn(12))/4 - 0.5 // ties, signs, zero
				}
				e.Observe(64500, probe, at, vs)
				r := ref{probe, e.binKey(at.Unix())}
				if model[r] == nil {
					model[r] = &bin{}
				}
				model[r].samples = append(model[r].samples, vs...)
				model[r].groups++
			case op < 10: // median reads: one cell, then the signal
				for r, b := range model {
					got, ok := e.cellAt(r.probe, r.key).median()
					want, err := stats.Median(b.samples)
					if ok != (err == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
						t.Fatalf("seed %d step %d: median read %v (%v), want %v", seed, step, got, ok, want)
					}
					break
				}
				_, _, _ = e.Signal(64500, t0, 4)
			case op == 10:
				if err := e.Snapshot(io.Discard); err != nil {
					t.Fatal(err)
				}
			case op == 11 || op == 12: // checkpoint: a base, then segments
				if len(model) == 0 {
					continue // a segment needs a watermark
				}
				var buf bytes.Buffer
				write := e.AppendSegment
				if ckpt == nil {
					write = e.WriteBase
				}
				if err := write(&buf); err != nil {
					t.Fatal(err)
				}
				ckpt = append(ckpt, buf.Bytes()...)
			case op == 13 || op == 14: // restore the checkpoint, brought up to date
				if ckpt == nil {
					continue
				}
				var buf bytes.Buffer
				if err := e.AppendSegment(&buf); err != nil {
					t.Fatal(err)
				}
				ckpt = append(ckpt, buf.Bytes()...)
				r, err := Restore(bytes.NewReader(ckpt), Options{})
				if err != nil {
					t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
				}
				e = r
				canonicalRestores++
			default: // restore a base written in non-canonical heap layouts
				if len(model) == 0 {
					continue
				}
				perProbe := map[int][]wire.SnapshotBin{}
				for r, b := range model {
					lo, hi := heapLayout(rng, b.samples)
					perProbe[r.probe] = append(perProbe[r.probe], wire.SnapshotBin{Key: r.key, Groups: b.groups, Lo: lo, Hi: hi})
				}
				var buf bytes.Buffer
				sw := wire.NewSnapshotWriter(&buf)
				st := e.Stats()
				meta := wire.SnapshotMeta{
					BinWidth: 30 * time.Minute, MinTraceroutes: 3,
					Ingested: st.Ingested, Dropped: st.Dropped, EvictedBins: st.EvictedBins,
					HasNewest: true, NewestNano: e.newest.Load(),
				}
				if err := sw.WriteMeta(&meta); err != nil {
					t.Fatal(err)
				}
				for probe := 1; probe <= 3; probe++ {
					bins := perProbe[probe]
					if len(bins) == 0 {
						continue
					}
					slices.SortFunc(bins, func(a, b wire.SnapshotBin) int { return cmp.Compare(a.Key, b.Key) })
					if err := sw.WriteProbe(&wire.SnapshotProbe{ASN: 64500, ProbeID: probe, Bins: bins}); err != nil {
						t.Fatal(err)
					}
				}
				if err := sw.Flush(); err != nil {
					t.Fatal(err)
				}
				r, err := Restore(bytes.NewReader(buf.Bytes()), Options{})
				if err != nil {
					t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
				}
				e, ckpt = r, buf.Bytes() // a valid checkpoint base of this state
				heapRestores++
				for _, pw := range e.shards[0].ases[64500].probes {
					for i := range pw.cells {
						if math.IsNaN(pw.cells[i].med) {
							staleRestored++
						}
					}
				}
			}
			// The invariant, over every cell.
			cells := 0
			if aw := e.shards[0].ases[64500]; aw != nil {
				for _, pw := range aw.probes {
					cells += len(pw.cells)
				}
			}
			if cells != len(model) {
				t.Fatalf("seed %d step %d: %d cells, model holds %d", seed, step, cells, len(model))
			}
			for r, b := range model {
				c := e.cellAt(r.probe, r.key)
				if c.groups != b.groups || !sameMultiset(c.samples, b.samples) {
					t.Fatalf("seed %d step %d: cell %v holds %v (%d groups), fed %v (%d)", seed, step, r, c.samples, c.groups, b.samples, b.groups)
				}
				want, err := stats.Median(c.samples)
				if !math.IsNaN(c.med) && (!slices.IsSorted(c.samples) || math.Float64bits(c.med) != math.Float64bits(want)) {
					t.Fatalf("seed %d step %d: cell %v stores median %v over %v, want %v", seed, step, r, c.med, c.samples, want)
				}
				cc := *c
				cc.samples = slices.Clone(c.samples)
				got, ok := cc.median()
				if ok != (err == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
					t.Fatalf("seed %d step %d: cell %v reads median %v (%v), want %v", seed, step, r, got, ok, want)
				}
			}
		}
	}
	if canonicalRestores == 0 || heapRestores == 0 || staleRestored == 0 {
		t.Fatalf("restores: %d canonical, %d non-canonical leaving %d stale cells; want each > 0", canonicalRestores, heapRestores, staleRestored)
	}
}

// cellAt returns AS 64500's cell for probe and key, which must exist.
func (e *Engine) cellAt(probe int, key int64) *cell {
	pw := e.shards[0].ases[64500].probes[probe]
	i, ok := pw.find(key)
	if !ok {
		panic(fmt.Sprintf("no cell for probe %d key %d", probe, key))
	}
	return &pw.cells[i]
}

// sameMultiset reports whether a and b hold the same values, bit for
// bit, in any order.
func sameMultiset(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// heapLayout splits samples into a valid two-heap state that is, for
// more than two samples, usually not the canonical one: each half is
// shuffled and then heapified, as an engine that kept live heaps left
// them.
func heapLayout(rng *rand.Rand, samples []float64) (lo, hi []float64) {
	s := slices.Clone(samples)
	slices.Sort(s)
	h := (len(s) + 1) / 2
	lo, hi = s[:h:h], s[h:]
	for _, half := range []struct {
		v    []float64
		less func(a, b float64) bool
	}{{lo, func(a, b float64) bool { return a > b }}, {hi, func(a, b float64) bool { return a < b }}} {
		rng.Shuffle(len(half.v), func(i, j int) { half.v[i], half.v[j] = half.v[j], half.v[i] })
		for i := len(half.v)/2 - 1; i >= 0; i-- {
			for j := i; ; {
				c := 2*j + 1
				if c >= len(half.v) {
					break
				}
				if c+1 < len(half.v) && half.less(half.v[c+1], half.v[c]) {
					c++
				}
				if !half.less(half.v[c], half.v[j]) {
					break
				}
				half.v[c], half.v[j] = half.v[j], half.v[c]
				j = c
			}
		}
	}
	return lo, hi
}

// TestCellSize pins a cell at 56 bytes on 64-bit platforms: the
// daemon holds one per resident probe bin, and a 64-byte cell raised
// peak RSS by about 5% on the survey workloads.
func TestCellSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(cell{}); got != 56 {
		t.Fatalf("cell is %d bytes, want 56", got)
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

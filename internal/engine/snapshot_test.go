package engine

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// snapEqual asserts two engines are observably identical: same ASNs,
// same stats, and bit-identical signals over nBins from start.
func snapEqual(t *testing.T, a, b *Engine, start time.Time, nBins int) {
	t.Helper()
	aa, ba := a.ASNs(), b.ASNs()
	if len(aa) != len(ba) {
		t.Fatalf("ASN count %d vs %d", len(aa), len(ba))
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	for i, asn := range aa {
		if asn != ba[i] {
			t.Fatalf("ASNs[%d] = %v vs %v", i, asn, ba[i])
		}
		siga, na, erra := a.Signal(asn, start, nBins)
		sigb, nb, errb := b.Signal(asn, start, nBins)
		if (erra == nil) != (errb == nil) {
			t.Fatalf("%v: err %v vs %v", asn, erra, errb)
		}
		if erra != nil {
			continue
		}
		if na != nb {
			t.Fatalf("%v: probes %d vs %d", asn, na, nb)
		}
		sameValues(t, asn.String(), siga, sigb)
	}
}

// TestEngineSnapshotRestoreContinue pins the tentpole resume contract:
// snapshot mid-stream, restore, feed the remainder — every verdict
// input must be bit-identical to a never-interrupted engine, including
// eviction cadence and counters.
func TestEngineSnapshotRestoreContinue(t *testing.T) {
	opts := Options{Window: 4 * 24 * time.Hour, MaxLateness: 12 * time.Hour}
	interrupted := New(opts)
	uninterrupted := New(opts)

	// First half of the stream, then freeze.
	for asn := bgp.ASN(100); asn < 110; asn++ {
		feed(interrupted, asn, 3, 3, float64(asn%5))
		feed(uninterrupted, asn, 3, 3, float64(asn%5))
	}
	var buf bytes.Buffer
	if err := interrupted.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Second half: feed the restored engine and the uninterrupted one
	// identically. Late enough to slide the window and evict.
	for asn := bgp.ASN(100); asn < 110; asn++ {
		late := t0.AddDate(0, 0, 5)
		for i := 0; i < 100; i++ {
			ts := late.Add(time.Duration(i) * 10 * time.Minute)
			restored.Observe(asn, 1, ts, []float64{3, 4, 5})
			uninterrupted.Observe(asn, 1, ts, []float64{3, 4, 5})
		}
		// A too-late result must be dropped by both.
		restored.Observe(asn, 2, t0, []float64{1})
		uninterrupted.Observe(asn, 2, t0, []float64{1})
	}
	nBins := int(4 * 24 * time.Hour / restored.Options().BinWidth)
	snapEqual(t, restored, uninterrupted, t0.AddDate(0, 0, 5), nBins)
}

// TestEngineSnapshotDeterministic pins byte-level reproducibility:
// snapshotting the same state twice — or a restored copy of it — must
// produce identical bytes, which is what makes checkpoint diffs and
// content-addressed storage meaningful.
func TestEngineSnapshotDeterministic(t *testing.T) {
	e := New(Options{Window: 2 * 24 * time.Hour})
	for asn := bgp.ASN(200); asn < 208; asn++ {
		feed(e, asn, 2, 2, 3)
	}
	var a, b bytes.Buffer
	if err := e.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same state differ")
	}
	restored, err := Restore(bytes.NewReader(a.Bytes()), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := restored.Snapshot(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("restore→snapshot is not byte-stable")
	}
}

func TestEngineRestoreOptions(t *testing.T) {
	e := New(Options{Window: 24 * time.Hour, MaxLateness: 2 * time.Hour})
	feed(e, 64500, 2, 1, 1)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Zero semantic options adopt the snapshot's.
	r, err := Restore(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Options(), e.Options(); got.BinWidth != want.BinWidth ||
		got.Window != want.Window || got.MaxLateness != want.MaxLateness ||
		got.MinTraceroutes != want.MinTraceroutes {
		t.Fatalf("restored options %+v, want %+v", got, want)
	}

	// Conflicting semantic options are a typed error, not silent
	// reinterpretation of the snapshotted bins.
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{BinWidth: time.Minute}); !errors.Is(err, ErrSnapshotOptions) {
		t.Fatalf("bin-width conflict: %v", err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{Window: time.Hour}); !errors.Is(err, ErrSnapshotOptions) {
		t.Fatalf("window conflict: %v", err)
	}

	// A corrupt stream surfaces the wire layer's typed error.
	raw := buf.Bytes()
	if _, err := Restore(bytes.NewReader(raw[:len(raw)-2]), Options{}); !errors.Is(err, wire.ErrShortFrame) {
		t.Fatalf("truncated snapshot: %v", err)
	}
}

// benchEngine builds a populated engine for the state-codec benchmarks:
// 32 ASes × 4 probes × 2 days at 10-minute cadence.
func benchEngine(tb testing.TB, opts Options) *Engine {
	e := New(opts)
	for asn := bgp.ASN(64500); asn < 64532; asn++ {
		feed(e, asn, 4, 2, float64(asn%7))
	}
	return e
}

// BenchmarkSnapshot measures serializing a resident window: one op
// writes the full engine state, MB/s is snapshot bytes over wall time.
func BenchmarkSnapshot(b *testing.B) {
	e := benchEngine(b, Options{Window: 4 * 24 * time.Hour})
	var size bytes.Buffer
	if err := e.Snapshot(&size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Snapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// FuzzEngineRestore feeds Restore arbitrary bytes. It must never panic,
// and any engine it returns — restored cleanly or up to a torn segment —
// must be a fixed point of Snapshot → Restore: the second snapshot
// equals the first byte for byte, and the stats agree. Restore
// canonicalises bins, so this also pins that a canonical snapshot
// restores to itself.
func FuzzEngineRestore(f *testing.F) {
	// A base.
	e := New(Options{Window: 24 * time.Hour, MaxLateness: time.Hour})
	for i := 0; i < 12; i++ {
		e.Observe(bgp.ASN(64500+i%2), 1+i%3, t0.Add(time.Duration(i)*7*time.Minute), []float64{float64(i), 1.5, 0.25})
	}
	var stream bytes.Buffer
	if err := e.WriteBase(&stream); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(stream.Bytes()))
	// A base plus two segments, one of them after an eviction.
	for _, d := range []time.Duration{3 * time.Hour, 30 * time.Hour} {
		e.Observe(64500, 2, t0.Add(d), []float64{2, 4})
		if err := e.AppendSegment(&stream); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	// A base whose bins hold valid, non-canonical heap layouts.
	f.Add(writeBase(f, []wire.SnapshotBin{
		{Key: t0.Unix(), Groups: 3, Lo: []float64{2.25, 1.125, 2.25}, Hi: []float64{4.5, 9}},
		{Key: t0.Unix() + 1800, Groups: 1, Lo: []float64{5, 1, 3}, Hi: []float64{6, 9, 7}},
	}))

	// A windowed base with a watermark and a bin width the engine cannot
	// key: it must be refused, not restored to divide by zero.
	var sub bytes.Buffer
	sw := wire.NewSnapshotWriter(&sub)
	if err := sw.WriteMeta(&wire.SnapshotMeta{BinWidth: 500 * time.Millisecond, Window: time.Hour, HasNewest: true, NewestNano: t0.UnixNano()}); err != nil {
		f.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(sub.Bytes())

	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Restore(bytes.NewReader(b), Options{})
		if err != nil && !errors.Is(err, ErrTornSegment) {
			return
		}
		first := snapshotBytes(t, e)
		again, err := Restore(bytes.NewReader(first), Options{})
		if err != nil {
			t.Fatalf("restoring a snapshot: %v", err)
		}
		if second := snapshotBytes(t, again); !bytes.Equal(first, second) {
			t.Fatalf("snapshot of the restored snapshot differs: %d vs %d bytes", len(second), len(first))
		}
		if a, b := e.Stats(), again.Stats(); a != b {
			t.Fatalf("stats differ: %+v vs %+v", a, b)
		}
	})
}

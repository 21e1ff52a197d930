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

// snapshotBytes returns e's full Snapshot.
func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := e.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// restoresTo asserts that the checkpoint stream restores, without
// error, to an engine whose Snapshot bytes are want.
func restoresTo(t *testing.T, stream, want []byte, label string) {
	t.Helper()
	r, err := Restore(bytes.NewReader(stream), Options{Shards: 3})
	if err != nil {
		t.Fatalf("%s: restore: %v", label, err)
	}
	if got := snapshotBytes(t, r); !bytes.Equal(got, want) {
		t.Fatalf("%s: restored snapshot (%d bytes) differs from the live one (%d bytes)", label, len(got), len(want))
	}
}

// shardedASNs returns two ASNs that land on different shards of e.
func shardedASNs(t *testing.T, e *Engine) (bgp.ASN, bgp.ASN) {
	t.Helper()
	a := bgp.ASN(64500)
	for b := a + 1; b < a+64; b++ {
		if e.shardOf(b) != e.shardOf(a) {
			return a, b
		}
	}
	t.Fatal("no two ASNs on different shards")
	return 0, 0
}

// TestEngineSegmentsRestoreEveryCheckpoint checkpoints a windowed,
// evicting, two-shard engine at every bin boundary of three days — one
// base, then a segment per boundary — and restores the stream after
// each one: the restored engine's Snapshot must equal the live one's
// byte for byte. Checkpoints land between the two ASes' observations of
// a timestamp, so one shard is often unswept at a checkpoint and swept
// by the next; and Snapshot runs between checkpoints, which must not
// hide a change from the next segment.
func TestEngineSegmentsRestoreEveryCheckpoint(t *testing.T) {
	e := New(Options{Window: 24 * time.Hour, MaxLateness: time.Hour, Shards: 2})
	asA, asB := shardedASNs(t, e)
	var stream bytes.Buffer
	lastBin := int64(-1 << 62)
	checkpoints := 0
	checkpoint := func() {
		bin, _ := e.NewestBin()
		if bin == lastBin {
			return
		}
		lastBin = bin
		if checkpoints == 0 {
			if err := e.WriteBase(&stream); err != nil {
				t.Fatal(err)
			}
		} else if err := e.AppendSegment(&stream); err != nil {
			t.Fatal(err)
		}
		checkpoints++
		restoresTo(t, stream.Bytes(), snapshotBytes(t, e), "checkpoint")
	}
	samples := make([]float64, 5)
	end := t0.AddDate(0, 0, 3)
	for i, ts := 0, t0.Add(5*time.Minute); ts.Before(end); i, ts = i+1, ts.Add(10*time.Minute) {
		for _, asn := range []bgp.ASN{asA, asB} {
			for p := 1; p <= 3; p++ {
				for j := range samples {
					samples[j] = float64((i+p+j)%7) + float64(asn%3)
				}
				e.Observe(asn, p, ts, samples)
				checkpoint()
			}
		}
		if i%5 == 0 {
			if err := e.Snapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := e.Stats()
	if st.EvictedBins == 0 || checkpoints < 100 {
		t.Fatalf("%d checkpoints, %d evicted bins: the feed must span many boundaries and evict", checkpoints, st.EvictedBins)
	}
}

// TestEngineSegmentReplacesRecreatedBin pins the one case where a key
// comes back: a sweep evicts the bin straddling the lateness horizon,
// and a late record at or after the horizon re-creates it. The segment
// must carry the new bin whole, replacing the old one the restored
// stream still holds, and keep it resident.
func TestEngineSegmentReplacesRecreatedBin(t *testing.T) {
	e := New(Options{Window: 24 * time.Hour, MaxLateness: time.Hour})
	// Bin k gets three groups; the base holds it.
	k := t0
	for i := 0; i < 3; i++ {
		e.Observe(1, 1, k.Add(time.Duration(i)*10*time.Minute), []float64{1, 2, 3})
	}
	var stream bytes.Buffer
	if err := e.WriteBase(&stream); err != nil {
		t.Fatal(err)
	}
	// Crossing into the bin whose horizon falls 10 minutes into k
	// sweeps k away.
	crossing := k.Add(25*time.Hour + 10*time.Minute)
	e.Observe(1, 2, crossing, []float64{4})
	if st := e.Stats(); st.EvictedBins != 1 {
		t.Fatalf("evicted %d bins, want bin k swept", st.EvictedBins)
	}
	// A record at the horizon is still accepted, and lands in k.
	if !e.Observe(1, 1, k.Add(20*time.Minute), []float64{9}) {
		t.Fatal("a record at the horizon must be accepted")
	}
	pw := e.shards[0].ases[1].probes[1]
	if i, ok := pw.find(k.Unix()); !ok || pw.cells[i].groups != 1 {
		t.Fatal("bin k was not re-created with one group")
	}
	before := stream.Len()
	if err := e.AppendSegment(&stream); err != nil {
		t.Fatal(err)
	}
	// The segment lists probe 1 with k as its lowest resident key and
	// carries the re-created k.
	sc := wire.NewSnapshotScanner(bytes.NewReader(stream.Bytes()))
	var sawLow, sawBin bool
	for frame := 0; sc.Scan(); frame++ {
		switch sc.Frame() {
		case wire.ResidentFrame:
			for _, p := range sc.Resident().Probes {
				if p.ProbeID == 1 && p.Low == k.Unix() {
					sawLow = true
				}
			}
		case wire.ProbeFrame:
			p := sc.Probe()
			if frame > 1 && p.ProbeID == 1 && len(p.Bins) == 1 && p.Bins[0].Key == k.Unix() && p.Bins[0].Groups == 1 {
				sawBin = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawLow || !sawBin {
		t.Fatalf("segment of %d bytes: lowest key k listed %v, re-created k carried %v", stream.Len()-before, sawLow, sawBin)
	}
	restoresTo(t, stream.Bytes(), snapshotBytes(t, e), "re-created bin")
}

// TestEngineRestoreTornSegment cuts a checkpoint stream inside its last
// segment: Restore returns the engine as of the segment before it,
// together with an error wrapping ErrTornSegment and the wire cause.
func TestEngineRestoreTornSegment(t *testing.T) {
	e := New(Options{Window: 24 * time.Hour})
	feed(e, 64500, 2, 1, 3)
	var stream bytes.Buffer
	if err := e.WriteBase(&stream); err != nil {
		t.Fatal(err)
	}
	e.Observe(64500, 1, t0.AddDate(0, 0, 1), []float64{5})
	if err := e.AppendSegment(&stream); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, e)
	complete := stream.Len()
	e.Observe(64500, 2, t0.AddDate(0, 0, 1).Add(time.Hour), []float64{6})
	if err := e.AppendSegment(&stream); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{complete + 1, stream.Len() - 1} {
		r, err := Restore(bytes.NewReader(stream.Bytes()[:cut]), Options{})
		if !errors.Is(err, ErrTornSegment) || !errors.Is(err, wire.ErrShortFrame) {
			t.Fatalf("cut at %d: err = %v, want ErrTornSegment wrapping ErrShortFrame", cut, err)
		}
		if r == nil || !bytes.Equal(snapshotBytes(t, r), want) {
			t.Fatalf("cut at %d: not restored to the last complete segment", cut)
		}
	}
	// A segment needs a watermark: an engine that observed nothing has
	// no segment to write.
	if err := New(Options{}).AppendSegment(io.Discard); err == nil {
		t.Fatal("segment of an empty engine must fail")
	}
}

package wire_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// scanOutcome is what one decode loop handed its fn, each result in its
// canonical encoding with its AS, and what it returned. The encoding
// carries every field of a Result and every float's bits, so equal
// encodings are bit-identical results.
type scanOutcome struct {
	results [][]byte
	err     error
}

var (
	// errStop is what the test fn returns to end a scan early.
	errStop = errors.New("fn stops the scan")
	// errReadFailed is what a reader failing mid-stream returns.
	errReadFailed = errors.New("read failed mid-stream")
)

// collect is the test fn: it keeps res's encoding and stops the scan
// with errStop once it holds stopAfter results (never when 0).
func (o *scanOutcome) collect(res *traceroute.Result, asn bgp.ASN, stopAfter int) error {
	o.results = append(o.results, wire.AppendResult(nil, asn, res))
	if len(o.results) == stopAfter {
		return errStop
	}
	return nil
}

// scannerLoop is the reference ScanAll must match: the Scanner loop.
func scannerLoop(r io.Reader, stopAfter int) scanOutcome {
	var o scanOutcome
	sc := wire.NewScanner(r)
	for sc.Scan() {
		if o.err = o.collect(sc.Result(), sc.ASN(), stopAfter); o.err != nil {
			return o
		}
	}
	o.err = sc.Err()
	return o
}

// scanAll runs ScanAll with the given decoder count and batch size.
func scanAll(r io.Reader, stopAfter, workers, batch int) scanOutcome {
	var o scanOutcome
	o.err = wire.ScanAllWith(r, func(res *traceroute.Result, asn bgp.ASN) error {
		return o.collect(res, asn, stopAfter)
	}, workers, batch)
	return o
}

// sentinels are the errors a wire read can wrap, and the test's own.
var sentinels = []error{
	wire.ErrBadMagic, wire.ErrVersion, wire.ErrStreamType, wire.ErrShortFrame,
	wire.ErrFrameTooLarge, wire.ErrOverlongVarint, wire.ErrTrailingBytes, wire.ErrBadFrame,
	errReadFailed, errStop,
}

// diffOutcome describes how got differs from want, or returns "": the
// same results bit for bit, then the same error text, the same chain of
// wrapped types, the same *CorruptError location and the same
// sentinels.
func diffOutcome(got, want scanOutcome) string {
	if len(got.results) != len(want.results) {
		return fmt.Sprintf("fn saw %d results, the Scanner loop %d", len(got.results), len(want.results))
	}
	for i := range got.results {
		if !bytes.Equal(got.results[i], want.results[i]) {
			return fmt.Sprintf("result %d differs:\n got %x\nwant %x", i, got.results[i], want.results[i])
		}
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Sprintf("error %q, the Scanner loop's %q", got.err, want.err)
	}
	if g, w := errorChain(got.err), errorChain(want.err); g != w {
		return fmt.Sprintf("error chain %s, the Scanner loop's %s", g, w)
	}
	var gc, wc *wire.CorruptError
	if errors.As(got.err, &gc) != errors.As(want.err, &wc) ||
		gc != nil && (gc.Frame != wc.Frame || gc.Offset != wc.Offset) {
		return fmt.Sprintf("corrupt error %+v, the Scanner loop's %+v", gc, wc)
	}
	for _, sentinel := range sentinels {
		if errors.Is(got.err, sentinel) != errors.Is(want.err, sentinel) {
			return fmt.Sprintf("errors.Is(%v) differs", sentinel)
		}
	}
	return ""
}

// errorChain renders the dynamic types along err's Unwrap chain.
func errorChain(err error) string {
	var types []string
	for ; err != nil; err = errors.Unwrap(err) {
		types = append(types, fmt.Sprintf("%T", err))
	}
	return strings.Join(types, " → ")
}

// decoders counts the goroutines running ScanAll's decoder, a
// parallel.Pipeline worker.
func decoders() int {
	buf := make([]byte, 4<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("parallel.pipelineWorker["))
}

// waitNoDecoders fails t unless every decoder goroutine has exited.
// A decoder that has signalled ScanAll may still be returning, so the
// check polls briefly.
func waitNoDecoders(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); decoders() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d decoder goroutines still run after ScanAll returned", decoders())
		}
	}
}

// simulatedArchive returns days of built-in traceroutes of about 10
// simulated probes as atlasgen -format binary writes them, and the
// payload of every frame.
func simulatedArchive(t testing.TB, days int) ([]byte, [][]byte) {
	t.Helper()
	world, err := scenario.Build(scenario.Config{Seed: 2020, ASes: 80, MaxProbesPerAS: 2})
	if err != nil {
		t.Fatal(err)
	}
	period := scenario.COVIDPeriod()
	msms := append(atlas.BuiltinMeasurements()[:4], atlas.BuiltinMeasurementsV6()[:2]...)
	eng := &atlas.Engine{Seed: 2020, Measurements: msms}
	var payloads [][]byte
	probes := 0
	for _, a := range world.ASes {
		if probes >= 10 {
			break
		}
		fleet, err := world.ProbesFor(a, period)
		if err != nil {
			t.Fatal(err)
		}
		probes += len(fleet)
		asn := a.Network.ASN
		for _, pr := range fleet {
			err := eng.Run(pr, period.Start, period.Start.AddDate(0, 0, days), func(r *traceroute.Result) error {
				payloads = append(payloads, wire.AppendResult(nil, asn, r))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return stream(wire.StreamResults, payloads), payloads
}

// stream frames payloads into a wire stream of the given type.
func stream(typ byte, payloads [][]byte) []byte {
	out := append(wire.Magic[:], wire.Version, typ)
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// badAddrTag returns payload with its source-address tag, which follows
// six varints, replaced by an unknown tag.
func badAddrTag(payload []byte) []byte {
	p := bytes.Clone(payload)
	off := 0
	for range 6 {
		_, n := binary.Uvarint(p[off:])
		off += n
	}
	p[off] = 7
	return p
}

func gzipped(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScanAllMatchesScanner runs ScanAll beside the Scanner loop on
// inputs that end cleanly, fail in the header, in a length prefix or in
// a payload in different batches, turn to zeroes, break in the gzip
// layer or the reader, or are stopped by fn. At GOMAXPROCS 1 and 4, with default
// batches and with one frame per batch, fn must see the same results
// and ScanAll must return the same error, with no decoder left running;
// at GOMAXPROCS 1 ScanAll must start none.
func TestScanAllMatchesScanner(t *testing.T) {
	day, payloads := simulatedArchive(t, 1)
	n := len(payloads)
	if len(day) < 3*wire.ScanAllBatch {
		t.Fatalf("a %d-byte day spans too few batches", len(day))
	}
	// Frame indices in the first, a middle and the last batch.
	batches := map[string]int{"first": 2, "a middle": n / 2, "the last": n - 1}
	// with returns the day up to frame i, followed by tail.
	with := func(i int, tail ...byte) []byte {
		return append(stream(wire.StreamResults, payloads[:i]), tail...)
	}
	// replaced returns the day with frame i's payload replaced by p.
	replaced := func(i int, p []byte) []byte {
		out := append([][]byte(nil), payloads...)
		out[i] = p
		return stream(wire.StreamResults, out)
	}
	prefix := func(i int) []byte { return binary.AppendUvarint(nil, uint64(len(payloads[i]))) }
	if len(prefix(n/2)) < 2 {
		t.Fatal("frames too short to cut a length prefix")
	}
	header := stream(wire.StreamResults, nil)
	atFrame := len(with(n / 2)) // a frame boundary mid-day
	zday := gzipped(t, day)

	type testCase struct {
		name      string
		input     []byte
		readErr   bool // the reader fails after input
		stopAfter int
		wantErr   error // a sentinel the reference error must match; nil for none
		noResults bool  // the Scanner loop fails before its first result
	}
	cases := []testCase{
		{name: "simulated day", input: day},
		{name: "header cut short", input: header[:5], wantErr: wire.ErrShortFrame, noResults: true},
		{name: "bad magic", input: append([]byte("LMW!"), day[4:]...), wantErr: wire.ErrBadMagic, noResults: true},
		{name: "unknown version", input: append(append(header[:4:4], wire.Version+1), day[5:]...), wantErr: wire.ErrVersion, noResults: true},
		{name: "wrong stream type", input: append(append(header[:5:5], wire.StreamCDNLog), day[6:]...), wantErr: wire.ErrStreamType, noResults: true},
		{name: "length prefix cut short", input: with(n/2, prefix(n / 2)[0]), wantErr: wire.ErrShortFrame},
		{name: "frame beyond MaxFrame", input: with(n/2, binary.AppendUvarint(nil, wire.MaxFrame+1)...), wantErr: wire.ErrFrameTooLarge},
		{name: "overlong length prefix", input: with(n/2, 0x80, 0x00), wantErr: wire.ErrOverlongVarint},
		{name: "zeroes from a mid-day frame on", input: with(n/2, make([]byte, 4*wire.ScanAllBatch)...), wantErr: wire.ErrShortFrame},
		{name: "gzip stream cut mid-frame", input: zday[:len(zday)/2], wantErr: wire.ErrShortFrame},
		{name: "reader fails mid-frame", input: day[:atFrame+100], readErr: true, wantErr: wire.ErrShortFrame},
		{name: "fn stops at the first result", input: day, stopAfter: 1, wantErr: errStop},
		{name: "fn stops mid-day", input: day, stopAfter: n / 2, wantErr: errStop},
		{name: "fn stops at the last result", input: day, stopAfter: n, wantErr: errStop},
	}
	for where, i := range batches {
		p := payloads[i]
		cases = append(cases,
			testCase{name: "payload cut short in " + where + " batch", input: with(i, append(prefix(i), p[:len(p)/2]...)...), wantErr: wire.ErrShortFrame},
			testCase{name: "trailing bytes in " + where + " batch", input: replaced(i, append(bytes.Clone(p), 0)), wantErr: wire.ErrTrailingBytes},
			testCase{name: "bad address tag in " + where + " batch", input: replaced(i, badAddrTag(p)), wantErr: wire.ErrBadFrame},
		)
	}
	reader := func(input []byte, readErr bool) io.Reader {
		if readErr {
			return io.MultiReader(bytes.NewReader(input), iotest.ErrReader(errReadFailed))
		}
		return bytes.NewReader(input)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := scannerLoop(reader(c.input, c.readErr), c.stopAfter)
			if c.wantErr == nil && want.err != nil {
				t.Fatalf("the Scanner loop failed: %v", want.err)
			}
			if c.wantErr != nil && !errors.Is(want.err, c.wantErr) {
				t.Fatalf("the Scanner loop returned %v, want %v", want.err, c.wantErr)
			}
			if (len(want.results) == 0) != c.noResults {
				t.Fatalf("the Scanner loop decoded %d results", len(want.results))
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				var public scanOutcome
				public.err = wire.ScanAll(reader(c.input, c.readErr), func(res *traceroute.Result, asn bgp.ASN) error {
					if procs == 1 && len(public.results) == 0 && decoders() > 0 {
						t.Error("ScanAll started decoders at GOMAXPROCS=1")
					}
					return public.collect(res, asn, c.stopAfter)
				})
				waitNoDecoders(t)
				if d := diffOutcome(public, want); d != "" {
					t.Fatalf("GOMAXPROCS=%d: %s", procs, d)
				}
				oneFrame := scanAll(reader(c.input, c.readErr), c.stopAfter, procs, 1)
				waitNoDecoders(t)
				if d := diffOutcome(oneFrame, want); d != "" {
					t.Fatalf("GOMAXPROCS=%d, one frame per batch: %s", procs, d)
				}
			}
		})
	}
}

// TestScanAllAllocsFlat pins that ScanAll does not allocate per record.
// A call's batches, their frames and their results' storage are reused
// from batch to batch: a result reuses the hops and replies of the
// result at its index in the batch before, and grows them only when a
// frame outsizes every earlier frame at that index, which happens ever
// more rarely as the input grows. So eight simulated days may allocate
// more than four, but by less than one allocation per two records more;
// one allocation per record would add one per record. AllocsPerRun runs
// at GOMAXPROCS=1, so the parallel path is called with two decoders.
func TestScanAllAllocsFlat(t *testing.T) {
	const workers = 2
	allocs := func(days int) (float64, int) {
		archive, payloads := simulatedArchive(t, days)
		return testing.AllocsPerRun(3, func() {
			err := wire.ScanAllWith(bytes.NewReader(archive), func(*traceroute.Result, bgp.ASN) error { return nil },
				workers, wire.ScanAllBatch)
			if err != nil {
				t.Fatal(err)
			}
		}), len(payloads)
	}
	four, fourRecords := allocs(4)
	eight, eightRecords := allocs(8)
	t.Logf("allocations per ScanAll: %.0f for %d records, %.0f for %d", four, fourRecords, eight, eightRecords)
	if more := eight - four; more > float64(eightRecords-fourRecords)/2 {
		t.Fatalf("eight days allocate %.0f times per ScanAll, four days %.0f: %.0f more for %d more records",
			eight, four, more, eightRecords-fourRecords)
	}
}

// fuzzSeed returns a small stream of hand-built results: a multi-hop
// IPv4 traceroute with a timeout, an IPv6 one, and an empty one.
func fuzzSeed() []byte {
	v4 := &traceroute.Result{
		ProbeID: 101, MsmID: 5010, AF: 4, Proto: "ICMP",
		Timestamp: time.Date(2019, 9, 19, 12, 30, 0, 0, time.UTC),
		SrcAddr:   netip.MustParseAddr("192.168.1.10"),
		FromAddr:  netip.MustParseAddr("203.0.113.99"),
		DstAddr:   netip.MustParseAddr("193.0.14.129"),
		Hops: []traceroute.HopResult{
			{Hop: 1, Replies: []traceroute.Reply{
				{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.52, TTL: 64},
				{Timeout: true, RTT: math.NaN()},
			}},
			{Hop: 2, Replies: []traceroute.Reply{{From: netip.MustParseAddr("203.0.113.1"), RTT: 12.75, TTL: 254}}},
		},
	}
	v6 := &traceroute.Result{
		ProbeID: 7, MsmID: 6010, AF: 6, Proto: "UDP",
		Timestamp: time.Unix(1568894400, 999999999).UTC(),
		SrcAddr:   netip.MustParseAddr("2001:db8::5"),
		Hops:      []traceroute.HopResult{{Hop: 1, Replies: []traceroute.Reply{{From: netip.MustParseAddr("2001:db8::1"), RTT: 0.7}}}},
	}
	empty := &traceroute.Result{Timestamp: time.Unix(0, 0).UTC()}
	return stream(wire.StreamResults, [][]byte{
		wire.AppendResult(nil, 64500, v4), wire.AppendResult(nil, 64501, v6), wire.AppendResult(nil, 0, empty),
		wire.AppendResult(nil, 64500, v4),
	})
}

// FuzzScanAllMatchesScanner drives ScanAll beside the Scanner loop on
// arbitrary streams, optionally gzipped and cut, with fn stopping the
// scan after stopAfter results (never when 0). At one and four decoders,
// with one frame per batch, a few frames per batch and the default
// batch, ScanAll must hand fn the loop's results and return its error.
func FuzzScanAllMatchesScanner(f *testing.F) {
	seed := fuzzSeed()
	f.Add(seed, uint8(0), uint16(0))
	f.Add(seed, uint8(2), uint16(0))
	f.Add(seed[:len(seed)-3], uint8(0), uint16(0))
	f.Add(append(bytes.Clone(seed), 0x80, 0x00), uint8(0), uint16(0))
	f.Add(seed, uint8(0), uint16(len(seed)/2))
	f.Fuzz(func(t *testing.T, data []byte, stopAfter uint8, gzipCut uint16) {
		if gzipCut > 0 {
			z := gzipped(t, data)
			data = z[:min(int(gzipCut), len(z))]
		}
		want := scannerLoop(bytes.NewReader(data), int(stopAfter))
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 64, wire.ScanAllBatch} {
				got := scanAll(bytes.NewReader(data), int(stopAfter), workers, batch)
				if d := diffOutcome(got, want); d != "" {
					t.Fatalf("%d decoders, %d-byte batches: %s", workers, batch, d)
				}
			}
		}
	})
}

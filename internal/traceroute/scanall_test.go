package traceroute_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// scanOutcome is what one decode loop handed its fn, cloned, and what
// it returned.
type scanOutcome struct {
	results []*traceroute.Result
	err     error
}

var (
	// errStop is what the test fn returns to end a scan early.
	errStop = errors.New("fn stops the scan")
	// errReadFailed is what a reader failing mid-stream returns.
	errReadFailed = errors.New("read failed mid-stream")
)

// collect is the test fn: it keeps a clone of res and stops the scan
// with errStop once it holds stopAfter results (never when 0).
func (o *scanOutcome) collect(res *traceroute.Result, stopAfter int) error {
	o.results = append(o.results, res.Clone())
	if len(o.results) == stopAfter {
		return errStop
	}
	return nil
}

// scannerLoop is the reference ScanAll must match: the Scanner loop.
func scannerLoop(r io.Reader, stopAfter int) scanOutcome {
	var o scanOutcome
	sc := traceroute.NewScanner(r)
	for sc.Scan() {
		if o.err = o.collect(sc.Result(), stopAfter); o.err != nil {
			return o
		}
	}
	o.err = sc.Err()
	return o
}

// scanAll runs ScanAll with the given decoder count and batch size.
func scanAll(r io.Reader, stopAfter, workers, batch int) scanOutcome {
	var o scanOutcome
	o.err = traceroute.ScanAllWith(r, func(res *traceroute.Result) error {
		return o.collect(res, stopAfter)
	}, workers, batch)
	return o
}

// diffOutcome describes how got differs from want, or returns "": the
// same results bit for bit, then the same error text, the same chain of
// wrapped types and the same sentinels.
func diffOutcome(got, want scanOutcome) string {
	if len(got.results) != len(want.results) {
		return fmt.Sprintf("fn saw %d results, the Scanner loop %d", len(got.results), len(want.results))
	}
	for i := range got.results {
		if !resultsIdentical(got.results[i], want.results[i]) {
			return fmt.Sprintf("result %d differs:\n got %+v\nwant %+v", i, got.results[i], want.results[i])
		}
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Sprintf("error %q, the Scanner loop's %q", got.err, want.err)
	}
	if g, w := errorChain(got.err), errorChain(want.err); g != w {
		return fmt.Sprintf("error chain %s, the Scanner loop's %s", g, w)
	}
	var gs, ws *traceroute.SyntaxError
	if errors.As(got.err, &gs) != errors.As(want.err, &ws) || gs != nil && *gs != *ws {
		return fmt.Sprintf("syntax error %v, the Scanner loop's %v", gs, ws)
	}
	for _, sentinel := range []error{bufio.ErrTooLong, io.ErrUnexpectedEOF, errReadFailed, errStop} {
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

// maxLine is the longest line the Scanner accepts: its 4 MiB buffer
// holds the line and its newline.
const maxLine = 4<<20 - 1

// paddedRecord returns a valid record of exactly n bytes, padded with
// an unknown key the parser skips.
func paddedRecord(n int) []byte {
	head := []byte(`{"prb_id":7,"timestamp":1568851200,"af":4,"pad":"`)
	rec := append(head, bytes.Repeat([]byte("a"), n-len(head)-2)...)
	return append(rec, '"', '}')
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
// inputs that end cleanly, fail to decode in different batches, hit the
// line limit, break in the gzip layer or the reader, or are stopped by
// fn. At GOMAXPROCS 1 and 4, with default batches and with one line per
// batch, fn must see the same results and ScanAll must return the same
// error, with no decoder left running; at GOMAXPROCS 1 ScanAll must
// start none.
func TestScanAllMatchesScanner(t *testing.T) {
	day, _ := simulatedArchive(t, 1)
	lines := bytes.SplitAfter(day, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	if len(day) < 10*traceroute.ScanAllBatch {
		t.Fatalf("a %d-byte day spans too few batches", len(day))
	}
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }
	// corrupt returns the day with line i (0-based) replaced by garbage.
	corrupt := func(i int) []byte {
		out := append([][]byte(nil), lines...)
		out[i] = []byte("{\"prb_id\": 1, broken\n")
		return join(out...)
	}
	// untidy mixes blank, whitespace-only and CRLF lines into the first
	// 300 records and drops the final newline.
	var untidy []byte
	for i, l := range lines[:300] {
		switch i % 4 {
		case 0:
			untidy = append(untidy, '\n')
		case 1:
			untidy = append(untidy, " \t \r\n"...)
		case 2:
			l = append(bytes.TrimSuffix(l, []byte("\n")), "\r\n"...)
		}
		untidy = append(untidy, l...)
	}
	untidy = bytes.TrimRight(untidy, "\r\n")
	head := join(lines[:5]...)
	long := func(n int) []byte {
		return join(head, paddedRecord(n), []byte("\n"), head)
	}
	zday := gzipped(t, day)
	atLine := len(join(lines[:len(lines)/2]...)) // a line boundary mid-day

	cases := []struct {
		name      string
		input     []byte
		readErr   bool // the reader fails after input
		stopAfter int
		wantErr   error // a sentinel the reference error must match; nil for none
	}{
		{name: "simulated day", input: day},
		{name: "blank, whitespace-only and CRLF lines, no final newline", input: untidy},
		{name: "syntax error in the first batch", input: corrupt(2), wantErr: &traceroute.SyntaxError{}},
		{name: "syntax error in a middle batch", input: corrupt(len(lines) / 2), wantErr: &traceroute.SyntaxError{}},
		{name: "syntax error in the last batch", input: corrupt(len(lines) - 1), wantErr: &traceroute.SyntaxError{}},
		{name: "line at the 4 MiB limit", input: long(maxLine)},
		{name: "line one byte under the limit", input: long(maxLine - 1)},
		{name: "line one byte over the limit", input: long(maxLine + 1), wantErr: bufio.ErrTooLong},
		{name: "gzip stream cut mid-line", input: zday[:len(zday)/2], wantErr: &traceroute.SyntaxError{}},
		{name: "reader fails mid-line", input: day[:atLine+100], readErr: true, wantErr: &traceroute.SyntaxError{}},
		{name: "reader fails at a line boundary", input: day[:atLine], readErr: true, wantErr: errReadFailed},
		{name: "fn stops at the first result", input: day, stopAfter: 1, wantErr: errStop},
		{name: "fn stops mid-day", input: day, stopAfter: len(lines) / 2, wantErr: errStop},
		{name: "fn stops at the last result", input: day, stopAfter: len(lines), wantErr: errStop},
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
			switch target := c.wantErr.(type) {
			case nil:
				if want.err != nil {
					t.Fatalf("the Scanner loop failed: %v", want.err)
				}
			case *traceroute.SyntaxError:
				if !errors.As(want.err, &target) {
					t.Fatalf("the Scanner loop returned %v, want a syntax error", want.err)
				}
			default:
				if !errors.Is(want.err, c.wantErr) {
					t.Fatalf("the Scanner loop returned %v, want %v", want.err, c.wantErr)
				}
			}
			if len(want.results) == 0 {
				t.Fatal("the Scanner loop decoded nothing")
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				var public scanOutcome
				public.err = traceroute.ScanAll(reader(c.input, c.readErr), func(res *traceroute.Result) error {
					if procs == 1 && len(public.results) == 0 && decoders() > 0 {
						t.Error("ScanAll started decoders at GOMAXPROCS=1")
					}
					return public.collect(res, c.stopAfter)
				})
				waitNoDecoders(t)
				if d := diffOutcome(public, want); d != "" {
					t.Fatalf("GOMAXPROCS=%d: %s", procs, d)
				}
				oneLine := scanAll(reader(c.input, c.readErr), c.stopAfter, procs, 1)
				waitNoDecoders(t)
				if d := diffOutcome(oneLine, want); d != "" {
					t.Fatalf("GOMAXPROCS=%d, one line per batch: %s", procs, d)
				}
			}
		})
	}
}

// TestScanAllAllocsFlat pins that ScanAll's allocations do not grow
// with the input: a call's batches, their lines and their results'
// storage are reused from batch to batch, so four simulated days, about
// 8,400 records more, cost what one does. A batch's slices are sized
// for a campaign batch up front and grow only when a later batch
// outsizes every earlier one, so the check allows each of the five
// batches' six slices one more growth; one allocation per record would
// add thousands. AllocsPerRun runs at GOMAXPROCS=1, so the parallel path
// is called with four decoders.
func TestScanAllAllocsFlat(t *testing.T) {
	const workers = 4
	const slack = 6 * (workers + 1)
	allocs := func(days int) float64 {
		archive, _ := simulatedArchive(t, days)
		return testing.AllocsPerRun(3, func() {
			err := traceroute.ScanAllWith(bytes.NewReader(archive), func(*traceroute.Result) error { return nil },
				workers, traceroute.ScanAllBatch)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	one, four := allocs(1), allocs(4)
	t.Logf("allocations per ScanAll: %.0f for one day, %.0f for four", one, four)
	if four > one+slack {
		t.Fatalf("four days allocate %.0f times per ScanAll, one day %.0f: allocations grow with the input", four, one)
	}
}

// FuzzScanAllMatchesScanner drives ScanAll beside the Scanner loop on
// arbitrary streams, optionally gzipped and cut, with fn stopping the
// scan after stopAfter results (never when 0). At one and four decoders,
// with one line per batch and with the default batch, ScanAll must hand
// fn the loop's results and return its error.
func FuzzScanAllMatchesScanner(f *testing.F) {
	valid, err := traceroute.MarshalAtlas(traceroute.SampleResult())
	if err != nil {
		f.Fatal(err)
	}
	three := bytes.Repeat(append(valid, '\n'), 3)
	f.Add(three, uint8(0), uint16(0))
	f.Add(three, uint8(2), uint16(0))
	f.Add(append(append([]byte("\n \t\r\n"), three...), "{broken\n"...), uint8(0), uint16(0))
	f.Add(bytes.ReplaceAll(three, []byte("\n"), []byte("\r\n")), uint8(0), uint16(0))
	f.Add(bytes.TrimSuffix(three, []byte("\n")), uint8(0), uint16(0))
	f.Add(three, uint8(0), uint16(len(three)/2))
	f.Fuzz(func(t *testing.T, data []byte, stopAfter uint8, gzipCut uint16) {
		if gzipCut > 0 {
			z := gzipped(t, data)
			data = z[:min(int(gzipCut), len(z))]
		}
		want := scannerLoop(bytes.NewReader(data), int(stopAfter))
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, traceroute.ScanAllBatch} {
				got := scanAll(bytes.NewReader(data), int(stopAfter), workers, batch)
				if d := diffOutcome(got, want); d != "" {
					t.Fatalf("%d decoders, %d-byte batches: %s", workers, batch, d)
				}
			}
		}
	})
}

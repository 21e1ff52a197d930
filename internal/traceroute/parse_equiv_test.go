package traceroute_test

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// TestParseAtlasIntoSimulatedDay decodes one simulated day of built-in
// traceroutes, written as atlasgen writes them (multi-hop records, RTTs
// in shortest round-trip form of up to 17 digits, IPv4 and IPv6), with
// both parsers, and requires bit-identical Results for every record.
func TestParseAtlasIntoSimulatedDay(t *testing.T) {
	archive, probes := simulatedArchive(t, 1)
	var into traceroute.Result
	records, replies, long := 0, 0, 0 // long: RTTs of 16 or more significant digits
	sc := bufio.NewScanner(bytes.NewReader(archive))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		want, err := traceroute.ParseAtlas(line)
		if err != nil {
			t.Fatalf("record %d: oracle: %v", records, err)
		}
		if err := traceroute.ParseAtlasInto(&into, line); err != nil {
			t.Fatalf("record %d: %v\n%s", records, err, line)
		}
		if !resultsIdentical(want, &into) {
			t.Fatalf("record %d: parsers disagree\noracle: %+v\n  into: %+v", records, want, &into)
		}
		records++
		for _, h := range want.Hops {
			replies += len(h.Replies)
			for _, rep := range h.Replies {
				if !rep.Timeout && len(strings.Trim(strconv.FormatFloat(rep.RTT, 'e', -1, 64), "-")) >= len("1.234567890123456e+00") {
					long++
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records < 1000 || replies < 10*records || long < replies/4 {
		t.Fatalf("%d records, %d replies, %d long RTTs: the day is not campaign-shaped", records, replies, long)
	}
	t.Logf("%d probes: %d records, %d replies, %d RTTs of 16+ digits", probes, records, replies, long)
}

// simulatedArchive returns days of built-in traceroutes of about 10
// simulated probes as atlasgen writes them, and the probe count.
func simulatedArchive(t testing.TB, days int) ([]byte, int) {
	t.Helper()
	world, err := scenario.Build(scenario.Config{Seed: 2020, ASes: 80, MaxProbesPerAS: 2})
	if err != nil {
		t.Fatal(err)
	}
	period := scenario.COVIDPeriod()
	msms := append(atlas.BuiltinMeasurements()[:4], atlas.BuiltinMeasurementsV6()[:2]...)
	eng := &atlas.Engine{Seed: 2020, Measurements: msms}
	var buf bytes.Buffer
	w := traceroute.NewWriter(&buf)
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
		for _, pr := range fleet {
			if err := eng.Run(pr, period.Start, period.Start.AddDate(0, 0, days), w.Write); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if probes < 8 {
		t.Fatalf("simulated %d probes, want about 10", probes)
	}
	return buf.Bytes(), probes
}

// TestParseAtlasIntoFallbacks: inputs that must leave a fast path (the
// predicted keys, the reused reply address) decode exactly as the
// oracle does, or are rejected where the documented tightenings say so.
func TestParseAtlasIntoFallbacks(t *testing.T) {
	reply := func(objs string) []byte {
		return []byte(`{"prb_id":1,"result":[{"hop":1,"result":[` + objs + `]}]}`)
	}
	for _, tc := range []struct {
		name    string
		in      []byte
		rejects bool // a documented tightening or an input both reject
	}{
		{"escaped key", reply(`{"\u0066rom":"10.0.0.1","rtt":1,"tt\u006c":3}`), false},
		{"space before colon", reply(`{"from" :"10.0.0.1","rtt" : 1,"ttl"	:3}`), false},
		{"space after colon", reply(`{"from": "10.0.0.1","rtt": 1.5,"ttl": 3}`), false},
		{"upper-case reply keys", reply(`{"FROM":"10.0.0.1","Rtt":1,"TTL":3}`), false},
		{"kelvin sign key", reply(`{"from":"10.0.0.1","rtt":1,"Kx":"*","ttK":9,"\u212Ay":1}`), false},
		{"long s in a hop key", []byte(`{"result":[{"hop":2,"reſult":[{"from":"10.0.0.1","rtt":1}]}]}`), false},
		{"long s in a result key", []byte(`{"timeſtamp":7,"prb_id":1}`), false},
		{"unknown keys", reply(`{"from":"10.0.0.1","size":28,"rtt":1,"dup":true}`), false},
		{"keys in another order", reply(`{"ttl":3,"rtt":1,"from":"10.0.0.1"}`), false},
		{"responder changes at the third reply", reply(
			`{"from":"10.0.0.1","rtt":1},{"from":"10.0.0.1","rtt":2},{"from":"10.0.0.2","rtt":3}`), false},
		{"responder's address extended", reply(`{"from":"10.0.0.1","rtt":1},{"from":"10.0.0.10","rtt":2}`), false},
		{"responder returns", reply(
			`{"from":"10.0.0.1","rtt":1},{"from":"2001:db8::1","rtt":2},{"from":"10.0.0.1","rtt":3}`), false},
		{"escaped repeat of the responder", reply(
			`{"from":"10.0.0.1","rtt":1},{"from":"\u0031\u0030.0.0.1","rtt":2}`), false},
		{"timeout between answers", reply(
			`{"from":"10.0.0.1","rtt":1},{"x":"*"},{"from":"10.0.0.1","rtt":3}`), false},
		{"empty from after an answer", reply(`{"from":"10.0.0.1","rtt":1},{"from":"","rtt":2}`), false},
		{"repeated predicted key", reply(`{"from":"10.0.0.1","rtt":1,"rtt":2}`), true},
		{"repeated key, predicted then folded", reply(`{"from":"10.0.0.1","rtt":1,"RTT":2}`), true},
		{"valid address then invalid", reply(`{"from":"10.0.0.1","rtt":1},{"from":"10.0.0.1x","rtt":2}`), true},
		{"invalid address that prefixes the last", reply(`{"from":"10.0.0.12","rtt":1},{"from":"10.0.0.1","rtt":2},{"from":"10.0.0.","rtt":3}`), true},
		{"record cut inside a predicted key", []byte(`{"fw":5020,"prb_id":1,"result":[{"hop":1,"result":[{"from":"10.0.0.1","rt`), true},
		{"record cut inside a reused address", []byte(`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1},{"from":"10.0.`), true},
		{"int field past int64", []byte(`{"prb_id":20000000000000000000}`), true},
		{"negative int field past int64", []byte(`{"prb_id":-20000000000000000000}`), true},
		{"timestamp past uint64", []byte(`{"timestamp":18446744073709551617}`), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var into traceroute.Result
			// A first parse leaves the pooled parser holding 10.0.0.1 as
			// its last address, so every case also meets the reuse path.
			if err := traceroute.ParseAtlasInto(&into, reply(`{"from":"10.0.0.1","rtt":1}`)); err != nil {
				t.Fatal(err)
			}
			intoErr := traceroute.ParseAtlasInto(&into, tc.in)
			want, err := traceroute.ParseAtlas(tc.in)
			if tc.rejects {
				var se *traceroute.SyntaxError
				if !errors.As(intoErr, &se) {
					t.Fatalf("ParseAtlasInto err = %v, want a *SyntaxError\ninput: %s", intoErr, tc.in)
				}
				return
			}
			if intoErr != nil || err != nil {
				t.Fatalf("ParseAtlasInto err = %v, oracle err = %v\ninput: %s", intoErr, err, tc.in)
			}
			if !resultsIdentical(want, &into) {
				t.Fatalf("parsers disagree\noracle: %+v\n  into: %+v", want, &into)
			}
		})
	}
}

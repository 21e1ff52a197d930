package traceroute

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// decodeFloat runs the parser's number decoder over one literal, which
// it must consume whole, and reports whether an exact path decoded it
// without strconv.
func decodeFloat(t *testing.T, lit string) (f float64, fast bool, err error) {
	t.Helper()
	p := &atlasParser{data: []byte(lit)}
	var n number
	if err := p.scanNumber(&n); err != nil {
		t.Fatalf("%q: scan: %v", lit, err)
	}
	if p.pos != len(lit) {
		t.Fatalf("%q: scanned %d of %d bytes", lit, p.pos, len(lit))
	}
	_, fast = n.float()
	p.pos = 0
	f, err = p.parseFloatValue()
	return f, fast, err
}

// checkFloat requires the decoder to agree with strconv.ParseFloat bit
// for bit, or both to fail, and returns whether an exact path decoded
// the literal.
func checkFloat(t *testing.T, lit string) bool {
	t.Helper()
	want, werr := strconv.ParseFloat(lit, 64)
	got, fast, err := decodeFloat(t, lit)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%q: err = %v, strconv err = %v", lit, err, werr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: got %v (%#x), strconv %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return fast
}

// jsonNumber reports whether lit obeys JSON's number grammar on the
// point strconv is laxer about: no leading zero before a digit.
func jsonNumber(lit string) bool {
	lit = strings.TrimPrefix(lit, "-")
	return !(len(lit) > 1 && lit[0] == '0' && lit[1] >= '0' && lit[1] <= '9')
}

// TestNumberDecoderMatchesStrconv pins the one-pass number decoder to
// strconv.ParseFloat, Float64bits for Float64bits, on every class of
// literal it has a path for, and on the classes it hands to strconv.
func TestNumberDecoderMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	checked := 0

	// Random 1-19-digit mantissas with the decimal point at every
	// position, including none and a leading "0.".
	for nd := 1; nd <= 19; nd++ {
		for rep := 0; rep < 300; rep++ {
			ds := digits(nd)
			for pt := 0; pt <= nd; pt++ {
				lit := ds
				switch {
				case pt == 0:
					lit = "0." + ds
				case pt < nd:
					lit = ds[:pt] + "." + ds[pt:]
				}
				if rep%2 == 1 {
					lit = "-" + lit
				}
				if !jsonNumber(lit) {
					continue
				}
				checkFloat(t, lit)
				checked++
			}
		}
	}

	// Shortest round-trip renderings, as atlasgen and encoding/json
	// write RTTs: every one in RTT range must take an exact path.
	for i := 0; i < 50000; i++ {
		f := math.Exp(rng.Float64()*math.Log(1e6)) / 1e3 // 0.001 ms to 1000 ms
		lit := strconv.FormatFloat(f, 'f', -1, 64)
		if !checkFloat(t, lit) {
			t.Fatalf("%q took the strconv fallback", lit)
		}
		checked++
	}
	// ... and of arbitrary finite float64s, whatever their path.
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, strconv.FormatFloat(f, 'f', -1, 64))
		checked++
	}

	// Three-decimal RTTs, as real Atlas data carries them.
	for i := 0; i < 20000; i++ {
		lit := strconv.FormatFloat(float64(rng.Intn(2000000))/1000, 'f', 3, 64)
		if !checkFloat(t, lit) {
			t.Fatalf("%q took the strconv fallback", lit)
		}
		checked++
	}

	// Exact halfway points between adjacent float64s, and their
	// neighbours one unit in the last digit away. The binades from 2^49
	// to 2^53, with ulps from 1/8 to 1, hold the halfway points of 17 to
	// 20 digits with a fraction; those of at most 19 digits must take the
	// division path, which rounds them to even.
	for i := 0; i < 20000; i++ {
		f := math.Ldexp(1+rng.Float64(), 49+rng.Intn(4))
		mid := new(big.Rat).SetFloat64(f)
		next := new(big.Rat).SetFloat64(math.Nextafter(f, math.Inf(1)))
		mid.Add(mid, next).Quo(mid, big.NewRat(2, 1))
		lit := strings.TrimRight(mid.FloatString(8), "0")
		if !checkFloat(t, lit) && len(lit) <= 20 {
			t.Fatalf("halfway %q took the strconv fallback", lit)
		}
		// The same literal one unit in its last digit up and down.
		k := len(lit) - strings.IndexByte(lit, '.') - 1
		unit := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil))
		for _, r := range []*big.Rat{new(big.Rat).Add(mid, unit), new(big.Rat).Sub(mid, unit)} {
			checkFloat(t, r.FloatString(k))
		}
		checked += 3
	}

	// Literals beyond both exact paths, exponent forms and signed zeros.
	for _, lit := range []string{
		"12345678901234567890", "123456789012345678901.5", "0.12345678901234567890123",
		"9007199254740993", "9007199254740993.0", "18446744073709551616.25",
		"1e-7", "1.5E+3", "2.5e-3", "7E22", "7e23", "1e-19", "1e-23",
		"9999999999999999999e-19", "1e308", "1e309", "-1e309", "1e-324", "5e-324",
		"0e99999", "1e99999", "1e-99999", "0.000000000000000000001", "1e0",
		"0", "-0", "0.0", "-0.0", "-0e5", "0.5", "-0.00000000000000000000",
		// Long fractions against long exponents: the exponent part
		// cancels the fraction's leading zeros exactly (1e4), or holds
		// more digits than the scanner accumulates, where the value is
		// strconv's to decide (it caps exponents too).
		"0." + strings.Repeat("0", 12340) + "1e12345",
		"0." + strings.Repeat("0", 99999) + "1e1000005",
	} {
		checkFloat(t, lit)
		checked++
	}
	t.Logf("%d literals matched strconv.ParseFloat", checked)
}

// TestDigitRunWordBoundaries drives digitRun's word path across every
// run length, sign and end of run: the input's end, and each byte next
// to the digits in ASCII (`/`, `:`) or beyond it.
func TestDigitRunWordBoundaries(t *testing.T) {
	for n := 1; n <= 24; n++ {
		ds := strings.Repeat("9876543210", 3)[:n]
		for _, sign := range []string{"", "-"} {
			for _, frac := range []string{"", ".5", ".0123456789", "e1"} {
				num := sign + ds + frac
				want, _ := strconv.ParseFloat(num, 64)
				for _, tail := range []string{"", ",", "}", "/", ":", " ", "\x80"} {
					p := &atlasParser{data: []byte(num + tail)}
					f, err := p.parseFloatValue()
					if err != nil || p.pos != len(num) || math.Float64bits(f) != math.Float64bits(want) {
						t.Fatalf("%q: %v, %v after %d bytes; want %v after %d", num+tail, f, err, p.pos, want, len(num))
					}
				}
			}
		}
	}
}

// TestParseIntFieldRange pins the int fields to encoding/json's int64
// range. A 20-digit literal whose first 19 digits overflow uint64 once
// multiplied must not wrap around into range.
func TestParseIntFieldRange(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775807", -math.MaxInt64, true},
		{"-0", 0, true},
		{"0", 0, true},
		{"1234567890123456789", 1234567890123456789, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775808", 0, false}, // documented tightening
		{"20000000000000000000", 0, false},
		{"-20000000000000000000", 0, false},
		{"18446744073709551617", 0, false},
		{"12345678901234567890", 0, false},
		{"99999999999999999999.5", 0, false},
		{"1.0", 0, false},
		{"1e2", 0, false},
	} {
		p := &atlasParser{data: []byte(tc.in)}
		v, _, err := p.parseIntField()
		if tc.ok != (err == nil) || tc.ok && v != tc.want {
			t.Errorf("%s: got %d, %v; want %d, ok=%v", tc.in, v, err, tc.want, tc.ok)
		}
	}
}

// TestPredictedKeysMatchReadKey: each predicted key's raw bytes are the
// quoted field name and its colon, and nothing else, so the predicted
// path yields exactly the id readKeyID decodes.
func TestPredictedKeysMatchReadKey(t *testing.T) {
	pad := strings.Repeat(" ", 16)
	for id := keyOther + 1; id < numKeys; id++ {
		lit := `"` + keyNames[id] + `":`
		p := &atlasParser{data: []byte(lit + pad)}
		if !p.predictKey(id) || p.pos != len(lit) {
			t.Fatalf("%s: predicted key missed its own literal", lit)
		}
		p = &atlasParser{data: []byte(lit + pad)}
		got, err := p.readKeyID(resultKeys | hopKeys | replyKeys)
		if err != nil || got != id || p.pos != len(lit) {
			t.Fatalf("%s: readKeyID = %d, %v at %d; want %d", lit, got, err, p.pos, id)
		}
		// Any change of one byte, including the colon, is another key.
		for i := range lit {
			b := []byte(lit + pad)
			b[i] ^= 0x20
			p := &atlasParser{data: b}
			if p.predictKey(id) {
				t.Fatalf("%s: predicted key matched %q", lit, b[:len(lit)])
			}
		}
	}
}

// TestReadKeyIDFolds: the general path folds exactly the keys
// keyEquals folds, and leaves every other key unmapped.
func TestReadKeyIDFolds(t *testing.T) {
	for _, tc := range []struct {
		key  string
		want int
	}{
		{`"RTT"`, keyRTT},
		{`"Ttl"`, keyTTL},
		{`"from"`, keyFrom},
		{`"from" `, keyFrom},
		{`"rtt_"`, keyOther},
		{`"size"`, keyOther},
		{`"reſult"`, keyOther}, // "result" is a hop and result key, not a reply key
		{"\"Kx\"", keyOther},
		{"\"rttK\"", keyOther},
	} {
		p := &atlasParser{data: []byte(tc.key + ":1")}
		got, err := p.readKeyID(replyKeys)
		if err != nil || got != tc.want {
			t.Errorf("%s: got %d, %v; want %d", tc.key, got, err, tc.want)
		}
	}
	p := &atlasParser{data: []byte(`"reſult":1`)}
	if got, err := p.readKeyID(hopKeys); err != nil || got != keyResult {
		t.Errorf(`"reſult" in a hop: got %d, %v; want keyResult`, got, err)
	}
	p = &atlasParser{data: []byte(`"timeſtamp":1`)}
	if got, err := p.readKeyID(resultKeys); err != nil || got != keyTimestamp {
		t.Errorf(`"timeſtamp": got %d, %v; want keyTimestamp`, got, err)
	}
}

// TestScannerOwnsParser: a Scanner decodes through its own parser, which
// keeps the last reply address for reuse and allocates nothing per
// record.
func TestScannerOwnsParser(t *testing.T) {
	good, err := MarshalAtlas(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	for i := 0; i < 3; i++ {
		in.Write(good)
		in.WriteByte('\n')
	}
	sc := NewScanner(&in)
	n := 0
	for sc.Scan() {
		if got := sc.Result().Hops[0].Replies[1].From; got != sampleResult().Hops[0].Replies[1].From {
			t.Fatalf("record %d: reply from %v", n, got)
		}
		n++
	}
	if sc.Err() != nil || n != 3 {
		t.Fatalf("scanned %d, err %v", n, sc.Err())
	}
	// The last answered reply's address is the one the next reply's
	// "from" bytes are compared with.
	if got := string(sc.p.lastFrom); got != "193.0.14.129" || sc.p.lastAddr.String() != got {
		t.Fatalf("parser holds %q as %v for reuse, want the last responder 193.0.14.129", got, sc.p.lastAddr)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sc.p.parse(&sc.res, good); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Scanner's parser allocates %v per record", allocs)
	}
}

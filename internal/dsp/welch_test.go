package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// makeSine returns n samples of a sinusoid with the given peak-to-peak
// amplitude and frequency (cycles per unit time) sampled at rate samples
// per unit time, offset by dc.
func makeSine(n int, p2p, freq, rate, dc float64) []float64 {
	xs := make([]float64, n)
	amp := p2p / 2
	for i := range xs {
		t := float64(i) / rate
		xs[i] = dc + amp*math.Sin(2*math.Pi*freq*t)
	}
	return xs
}

func TestWelchPeakToPeakCalibration(t *testing.T) {
	// The paper's Fig. 2 y-axis reads directly as average peak-to-peak
	// amplitude. A pure daily sine of p2p 1.0 ms in 30-minute bins
	// (rate = 2 samples/hour) must read ~1.0 at 1/24 cycles/hour.
	const rate = 2.0
	daily := 1.0 / 24.0
	xs := makeSine(720, 1.0, daily, rate, 5.0)
	pg, err := Welch(xs, rate, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	peak, ok := pg.ProminentPeak()
	if !ok {
		t.Fatal("no peak found")
	}
	if math.Abs(peak.Freq-daily) > 1e-9 {
		t.Fatalf("peak frequency = %v, want %v", peak.Freq, daily)
	}
	if math.Abs(peak.P2P-1.0) > 0.02 {
		t.Fatalf("peak p2p = %v, want ~1.0", peak.P2P)
	}
}

func TestWelchCalibrationAcrossWindows(t *testing.T) {
	const rate = 2.0
	daily := 1.0 / 24.0
	xs := makeSine(960, 3.0, daily, rate, 0)
	for _, w := range []Window{Boxcar, Hann, Hamming, Blackman} {
		opts := WelchDefaults()
		opts.Window = w
		pg, err := Welch(xs, rate, opts)
		if err != nil {
			t.Fatal(err)
		}
		peak, ok := pg.ProminentPeak()
		if !ok {
			t.Fatalf("%v: no peak", w)
		}
		if math.Abs(peak.P2P-3.0) > 0.1 {
			t.Fatalf("window %v: p2p = %v, want ~3.0", w, peak.P2P)
		}
	}
}

func TestWelchDCIsRemoved(t *testing.T) {
	const rate = 2.0
	xs := makeSine(720, 0.5, 1.0/24.0, rate, 100.0)
	pg, err := Welch(xs, rate, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if pg.P2P[0] > 0.01 {
		t.Fatalf("DC bin = %v after detrending, want ~0", pg.P2P[0])
	}
}

func TestWelchNoisyFlatSpectrumHasNoDominantDaily(t *testing.T) {
	// ISP_DE-style signal: white noise only. The daily bin should not
	// stand far above the rest of the spectrum.
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 720)
	for i := range xs {
		xs[i] = math.Abs(rng.NormFloat64() * 0.1)
	}
	pg, err := Welch(xs, 2.0, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	dailyAmp, _, ok := pg.AmplitudeAt(1.0 / 24.0)
	if !ok {
		t.Fatal("no daily bin")
	}
	if dailyAmp > 0.5 {
		t.Fatalf("noise signal shows daily amplitude %v", dailyAmp)
	}
}

func TestWelchDetectsDailyInNoise(t *testing.T) {
	// A 2 ms p2p daily pattern buried in 0.3 ms noise must be recovered
	// with roughly the right amplitude.
	rng := rand.New(rand.NewSource(10))
	const rate = 2.0
	xs := makeSine(720, 2.0, 1.0/24.0, rate, 1.0)
	for i := range xs {
		xs[i] += rng.NormFloat64() * 0.3
	}
	pg, err := Welch(xs, rate, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	peak, ok := pg.ProminentPeak()
	if !ok {
		t.Fatal("no peak")
	}
	if math.Abs(peak.Freq-1.0/24.0) > pg.BinWidth()/2 {
		t.Fatalf("peak at %v, want daily", peak.Freq)
	}
	if peak.P2P < 1.5 || peak.P2P > 2.5 {
		t.Fatalf("recovered p2p = %v, want ~2.0", peak.P2P)
	}
}

func TestWelchShortSignalSingleSegment(t *testing.T) {
	xs := makeSine(100, 1.0, 0.1, 2.0, 0)
	pg, err := Welch(xs, 2.0, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if pg.Segments != 1 {
		t.Fatalf("segments = %d, want 1", pg.Segments)
	}
	if pg.SegmentLength != 100 {
		t.Fatalf("segment length = %d, want 100", pg.SegmentLength)
	}
}

func TestWelchSegmentCount(t *testing.T) {
	// 720 samples, 192 segment, 96 step -> segments at 0,96,...,528 = 6.
	xs := make([]float64, 720)
	pg, err := Welch(xs, 2.0, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if pg.Segments != 6 {
		t.Fatalf("segments = %d, want 6", pg.Segments)
	}
}

func TestWelchRejectsNaN(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 4}
	if _, err := Welch(xs, 2.0, WelchDefaults()); err == nil {
		t.Fatal("want error for NaN input")
	}
}

func TestWelchRejectsBadArgs(t *testing.T) {
	if _, err := Welch([]float64{1}, 2.0, WelchDefaults()); err == nil {
		t.Fatal("want error for 1 sample")
	}
	if _, err := Welch([]float64{1, 2}, 0, WelchDefaults()); err == nil {
		t.Fatal("want error for zero sample rate")
	}
	opts := WelchDefaults()
	opts.OverlapFrac = 1.0
	if _, err := Welch([]float64{1, 2, 3}, 2.0, opts); err == nil {
		t.Fatal("want error for overlap >= 1")
	}
	opts = WelchDefaults()
	opts.SegmentLength = 1
	if _, err := Welch([]float64{1, 2, 3}, 2.0, opts); err == nil {
		t.Fatal("want error for segment length 1")
	}
}

func TestWelchFrequencyAxis(t *testing.T) {
	xs := make([]float64, 192)
	pg, err := Welch(xs, 2.0, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// Bin 4 of a 192-sample segment at 2 samples/hour is 1/24 c/h.
	if math.Abs(pg.Freqs[4]-1.0/24.0) > 1e-12 {
		t.Fatalf("bin 4 = %v, want 1/24", pg.Freqs[4])
	}
	// Nyquist is the last bin.
	if math.Abs(pg.Freqs[len(pg.Freqs)-1]-1.0) > 1e-12 {
		t.Fatalf("nyquist = %v, want 1.0", pg.Freqs[len(pg.Freqs)-1])
	}
}

func TestAmplitudeAtOutOfRange(t *testing.T) {
	xs := make([]float64, 192)
	pg, err := Welch(xs, 2.0, WelchDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pg.AmplitudeAt(-0.1); ok {
		t.Fatal("negative frequency should not resolve")
	}
	if _, _, ok := pg.AmplitudeAt(5.0); ok {
		t.Fatal("beyond-Nyquist frequency should not resolve")
	}
	if _, bin, ok := pg.AmplitudeAt(1.0 / 24.0); !ok || bin != 4 {
		t.Fatalf("daily bin = %d ok=%v, want 4", bin, ok)
	}
}

func TestWelchLinearDetrendSuppressesDrift(t *testing.T) {
	// A strong linear drift must not swamp the daily component when
	// linear detrending is on.
	const rate = 2.0
	xs := makeSine(720, 1.0, 1.0/24.0, rate, 0)
	for i := range xs {
		xs[i] += 0.02 * float64(i)
	}
	opts := WelchDefaults()
	opts.LinearDetrend = true
	pg, err := Welch(xs, rate, opts)
	if err != nil {
		t.Fatal(err)
	}
	peak, ok := pg.ProminentPeak()
	if !ok {
		t.Fatal("no peak")
	}
	if math.Abs(peak.Freq-1.0/24.0) > pg.BinWidth()/2 {
		t.Fatalf("peak at %v c/h, drift leaked past detrending", peak.Freq)
	}
}

func TestWindowCoefficients(t *testing.T) {
	for _, w := range []Window{Boxcar, Hann, Hamming, Blackman} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: len = %d", w, len(c))
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v: coefficient %d = %v out of [0,1]", w, i, v)
			}
		}
	}
	if c := Hann.Coefficients(1); c[0] != 1 {
		t.Fatalf("Hann(1) = %v", c)
	}
	if c := Hann.Coefficients(0); len(c) != 0 {
		t.Fatalf("Hann(0) = %v", c)
	}
}

func TestWindowPeriodicHann(t *testing.T) {
	// Periodic Hann: w[0] = 0 and w[n/2] = 1.
	c := Hann.Coefficients(64)
	if math.Abs(c[0]) > 1e-12 {
		t.Fatalf("w[0] = %v", c[0])
	}
	if math.Abs(c[32]-1) > 1e-12 {
		t.Fatalf("w[n/2] = %v", c[32])
	}
}

func TestWindowString(t *testing.T) {
	names := map[Window]string{Boxcar: "boxcar", Hann: "hann", Hamming: "hamming", Blackman: "blackman", Window(99): "unknown"}
	for w, want := range names {
		if w.String() != want {
			t.Fatalf("%d.String() = %q", w, w.String())
		}
	}
}

func BenchmarkWelch720(b *testing.B) {
	xs := makeSine(720, 1.0, 1.0/24.0, 2.0, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Welch(xs, 2.0, WelchDefaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// Package dsp implements the signal processing used to detect persistent
// last-mile congestion: a fast Fourier transform, window functions, and the
// Welch method periodogram whose y-axis is normalised so that the value at
// a frequency bin reads directly as the average peak-to-peak amplitude (in
// milliseconds) of the corresponding sinusoidal component — exactly the
// normalisation used in Figure 2 of the paper.
package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// ErrEmpty is returned when a transform is requested on an empty input.
var ErrEmpty = errors.New("dsp: empty input")

// FFT returns the discrete Fourier transform of x. The input may have any
// length: power-of-two sizes use an iterative radix-2 Cooley-Tukey
// transform, other sizes use Bluestein's chirp-z algorithm. The input slice
// is not modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmpty
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out, nil
	}
	return bluestein(out, false)
}

// IFFT returns the inverse discrete Fourier transform of x, normalised by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmpty
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		var err error
		out, err = bluestein(out, true)
		if err != nil {
			return nil, err
		}
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// FFTReal transforms a real-valued signal and returns the full complex
// spectrum of the same length.
func FFTReal(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// twiddleTables holds the butterfly factors for a radix-2 transform of
// one size, flattened stage by stage (1 + 2 + ... + n/2 = n-1 entries).
// fwd holds the exp(-iθ) factors; inv holds their conjugates, which are
// bit-identical to the exp(+iθ) factors the inverse transform computed
// before caching (cos is even and sin is odd, bit-exactly, in math.Cos
// and math.Sin). Tables are computed once per size and shared read-only
// across goroutines.
type twiddleTables struct {
	fwd, inv []complex128
}

var twiddleCache sync.Map // transform size -> *twiddleTables

func twiddlesFor(n int) *twiddleTables {
	if v, ok := twiddleCache.Load(n); ok { //lmvet:ignore allocguard sync.Map boxes the int key; one word per lookup is the price of the shared read-mostly cache
		twiddleHits.Inc()
		return v.(*twiddleTables)
	}
	twiddleMisses.Inc()
	t := &twiddleTables{ //lmvet:ignore allocguard cache miss: tables are computed once per transform size, then shared
		fwd: make([]complex128, 0, n-1), //lmvet:ignore allocguard once per transform size
		inv: make([]complex128, 0, n-1), //lmvet:ignore allocguard once per transform size
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		// Kept as sign * 2π/size (not -2π/size) so every intermediate
		// matches the pre-cache per-butterfly expression bit for bit.
		step := -1.0 * 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			w := cmplx.Rect(1, step*float64(k))
			t.fwd = append(t.fwd, w)             //lmvet:ignore allocguard fills the exact capacity reserved above; field provenance is beyond the intraprocedural lattice
			t.inv = append(t.inv, cmplx.Conj(w)) //lmvet:ignore allocguard fills the exact capacity reserved above
		}
	}
	v, _ := twiddleCache.LoadOrStore(n, t) //lmvet:ignore allocguard boxes the int key once per transform size
	return v.(*twiddleTables)
}

// fftRadix2 computes an in-place iterative radix-2 FFT. len(x) must be a
// power of two. If inverse is true the conjugate transform is computed
// (without the 1/N normalisation).
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tables := twiddlesFor(n)
	tw := tables.fwd
	if inverse {
		tw = tables.inv
	}
	pos := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[pos : pos+half]
		pos += half
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * stage[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// bluesteinPlan caches everything about a chirp-z transform that depends
// only on (length, direction): the chirp sequence and the forward FFT of
// the convolution kernel b. Plans are shared read-only across goroutines.
type bluesteinPlan struct {
	// m is the power-of-two convolution length (next power of two at or
	// above 2n-1).
	m     int
	chirp []complex128
	bFFT  []complex128
}

type bluesteinKey struct {
	n       int
	inverse bool
}

var bluesteinCache sync.Map // bluesteinKey -> *bluesteinPlan

func bluesteinPlanFor(n int, inverse bool) *bluesteinPlan {
	key := bluesteinKey{n, inverse}
	if v, ok := bluesteinCache.Load(key); ok {
		bluesteinHits.Inc()
		return v.(*bluesteinPlan)
	}
	bluesteinMisses.Inc()
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: c[k] = exp(sign * i*pi*k^2/n). Use k^2 mod 2n to keep the
	// angle argument small and the trigonometry accurate for large k.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Rect(1, angle)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		conj := cmplx.Conj(chirp[k])
		b[k] = conj
		if k != 0 {
			b[m-k] = conj
		}
	}
	fftRadix2(b, false)
	p := &bluesteinPlan{m: m, chirp: chirp, bFFT: b}
	v, _ := bluesteinCache.LoadOrStore(key, p)
	return v.(*bluesteinPlan)
}

// execute evaluates the chirp-z convolution, writing the transform of x
// (length n) into out. out may alias x. scratch must have length p.m;
// it is fully overwritten, so callers can reuse it across calls.
func (p *bluesteinPlan) execute(out, x, scratch []complex128) {
	n := len(x)
	a := scratch
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	for k := n; k < p.m; k++ {
		a[k] = 0
	}
	fftRadix2(a, false)
	for i := range a {
		a[i] *= p.bFFT[i]
	}
	fftRadix2(a, true)
	invM := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * p.chirp[k]
	}
}

// bluestein computes the DFT of x for arbitrary length via the chirp-z
// transform, expressing the DFT as a convolution evaluated with a
// power-of-two FFT.
func bluestein(x []complex128, inverse bool) ([]complex128, error) {
	n := len(x)
	plan := bluesteinPlanFor(n, inverse)
	out := make([]complex128, n)
	plan.execute(out, x, make([]complex128, plan.m))
	return out, nil
}

// Interpolate returns a copy of xs in which interior runs of NaN are
// replaced by linear interpolation between the nearest finite neighbours,
// and leading/trailing NaN runs are filled with the nearest finite value.
// It returns an error if xs contains no finite value. Delay signals contain
// gap bins (disconnected probes); the Welch transform requires a gap-free
// signal, so pipelines interpolate first.
func Interpolate(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	copy(out, xs)
	first, last := -1, -1
	for i, v := range out {
		if !math.IsNaN(v) {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return nil, errors.New("dsp: signal is all NaN")
	}
	for i := 0; i < first; i++ {
		out[i] = out[first]
	}
	for i := last + 1; i < len(out); i++ {
		out[i] = out[last]
	}
	i := first
	for i <= last {
		if !math.IsNaN(out[i]) {
			i++
			continue
		}
		// Gap run [i, j); out[i-1] and out[j] are finite.
		j := i
		for math.IsNaN(out[j]) {
			j++
		}
		lo, hi := out[i-1], out[j]
		span := float64(j - (i - 1))
		for k := i; k < j; k++ {
			frac := float64(k-(i-1)) / span
			out[k] = lo + (hi-lo)*frac
		}
		i = j + 1
	}
	return out, nil
}

// DetrendMean subtracts the mean from xs in place.
func DetrendMean(xs []float64) {
	if len(xs) == 0 {
		return
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	for i := range xs {
		xs[i] -= mean
	}
}

// DetrendLinear removes the least-squares straight-line fit from xs in
// place. Linear detrending suppresses spectral leakage from slow drifts
// into the low-frequency bins where the daily component lives.
func DetrendLinear(xs []float64) {
	n := len(xs)
	if n < 2 {
		DetrendMean(xs)
		return
	}
	// Least squares fit y = a + b*t with t = 0..n-1.
	var sumT, sumY, sumTY, sumTT float64
	for i, v := range xs {
		t := float64(i)
		sumT += t
		sumY += v
		sumTY += t * v
		sumTT += t * t
	}
	fn := float64(n)
	denom := fn*sumTT - sumT*sumT
	if denom == 0 {
		DetrendMean(xs)
		return
	}
	b := (fn*sumTY - sumT*sumY) / denom
	a := (sumY - b*sumT) / fn
	for i := range xs {
		xs[i] -= a + b*float64(i)
	}
}

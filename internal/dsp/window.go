package dsp

import (
	"math"
	"sync"
)

// Window is a taper applied to each Welch segment before transforming.
type Window int

// Supported window functions.
const (
	// Boxcar applies no taper. Highest leakage, narrowest main lobe.
	Boxcar Window = iota
	// Hann is the raised-cosine window, the default for Welch analysis
	// and the window used by scipy.signal.welch (which the paper's
	// published tooling relies on).
	Hann
	// Hamming is the optimised raised-cosine window with non-zero
	// endpoints.
	Hamming
	// Blackman is a three-term cosine window with very low sidelobes.
	Blackman
)

// String returns the lowercase conventional name of the window.
func (w Window) String() string {
	switch w {
	case Boxcar:
		return "boxcar"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window coefficients for w using the periodic
// (DFT-even) convention, which is the correct convention for spectral
// averaging.
func (w Window) Coefficients(n int) []float64 {
	c := make([]float64, n)
	if n == 0 {
		return c
	}
	if n == 1 {
		c[0] = 1
		return c
	}
	fn := float64(n)
	for i := range c {
		t := 2 * math.Pi * float64(i) / fn
		switch w {
		case Boxcar:
			c[i] = 1
		case Hann:
			c[i] = 0.5 - 0.5*math.Cos(t)
		case Hamming:
			c[i] = 0.54 - 0.46*math.Cos(t)
		case Blackman:
			c[i] = 0.42 - 0.5*math.Cos(t) + 0.08*math.Cos(2*t)
		default:
			c[i] = 1
		}
	}
	return c
}

type windowKey struct {
	w Window
	n int
}

var coeffCache sync.Map // windowKey -> []float64

// cachedCoefficients returns a shared, read-only coefficient slice for
// (w, n). Welch applies the same taper to every segment of every signal
// it sees, so the coefficients are computed once per (window, length)
// and shared across goroutines. The public Coefficients keeps returning
// a fresh slice because callers are allowed to mutate it.
func (w Window) cachedCoefficients(n int) []float64 {
	key := windowKey{w, n}
	if v, ok := coeffCache.Load(key); ok {
		windowHits.Inc()
		return v.([]float64)
	}
	windowMisses.Inc()
	v, _ := coeffCache.LoadOrStore(key, w.Coefficients(n))
	return v.([]float64)
}

package dsp

import "math"

// FIR filter design by the windowed-sinc method. The paper's ECG chain uses
// a 32nd-order (33-tap) band-pass with cut-offs 0.05 Hz and 40 Hz applied
// forward-backward for zero phase; DesignBandPass reproduces exactly that
// design style.

// FIR is a finite impulse response filter described by its taps.
//
// The filtering methods lazily cache derived state (reversed taps for the
// direct convolution engine, the overlap-save plan for the FFT engine), so
// Taps must not be modified after the first filtering call. A FIR is not
// safe for concurrent use until Prepare has been called; afterwards the
// cost-model-driven methods (Apply, ApplyTo, ApplyCausal, FiltFiltFIR)
// are safe — the direct engine is read-only and the FFT engine serializes
// on its plan's internal block buffer. Forcing ApplyFFT on a filter
// narrow enough that Prepare skipped the plan still builds state lazily
// and needs external synchronization.
type FIR struct {
	Taps []float64

	rev []float64  // taps reversed, for the branch-free dot-product engine
	cp  *convPlan  // overlap-save state, built on first FFT-path use
	zp  *firKernel // zero-phase streaming kernel, shared by every stream
}

// Order returns the filter order (len(taps)-1).
func (f *FIR) Order() int { return len(f.Taps) - 1 }

// reversed returns the cached reversed-tap table, building it on first
// use.
func (f *FIR) reversed() []float64 {
	if len(f.rev) != len(f.Taps) {
		f.rev = make([]float64, len(f.Taps))
		for i, t := range f.Taps {
			f.rev[len(f.Taps)-1-i] = t
		}
	}
	return f.rev
}

// plan returns the cached overlap-save plan, building it on first use.
func (f *FIR) plan() *convPlan {
	if f.cp == nil {
		f.cp = newConvPlan(f.Taps)
	}
	return f.cp
}

// zeroPhase returns the cached zero-phase streaming kernel (the
// composite h*reverse(h) and, when wide enough, its overlap-save
// spectrum), building it on first use.
func (f *FIR) zeroPhase() *firKernel {
	if f.zp == nil {
		f.zp = zeroPhaseKernel(f.Taps)
	}
	return f.zp
}

// Prepare eagerly builds the cached filtering state (reversed taps, the
// overlap-save plan for filters wide enough to use the FFT path, and the
// zero-phase streaming kernel every NewZeroPhaseFIRStream shares). Call
// it once at construction when the filter will be applied from a
// steady-state hot path, shared between goroutines, or streamed by many
// sessions.
func (f *FIR) Prepare() {
	f.reversed()
	if useFFTConv(1<<20, len(f.Taps)) {
		f.plan()
	}
	f.zeroPhase()
}

// lowpassKernel returns an (order+1)-tap windowed-sinc low-pass kernel with
// normalized DC gain of exactly 1.
func lowpassKernel(order int, fc, fs float64, kind WindowKind) []float64 {
	n := order + 1
	taps := make([]float64, n)
	w := Window(kind, n)
	m := float64(order) / 2
	// Normalized cutoff in cycles/sample.
	nu := fc / fs
	sum := 0.0
	for i := 0; i < n; i++ {
		x := float64(i) - m
		taps[i] = 2 * nu * Sinc(2*nu*x) * w[i]
		sum += taps[i]
	}
	// Normalize so the DC gain (sum of taps) is 1.
	if sum != 0 {
		for i := range taps {
			taps[i] /= sum
		}
	}
	return taps
}

// DesignLowPass designs a windowed-sinc low-pass FIR of the given order
// (order+1 taps) with cutoff fc at sampling rate fs.
func DesignLowPass(order int, fc, fs float64, kind WindowKind) (*FIR, error) {
	if order < 1 {
		return nil, ErrBadOrder
	}
	if fc <= 0 || fc >= fs/2 {
		return nil, ErrBadCutoff
	}
	return &FIR{Taps: lowpassKernel(order, fc, fs, kind)}, nil
}

// DesignHighPass designs a windowed-sinc high-pass FIR by spectral
// inversion of the complementary low-pass. order must be even so that the
// filter has a well-defined center tap.
func DesignHighPass(order int, fc, fs float64, kind WindowKind) (*FIR, error) {
	if order < 2 || order%2 != 0 {
		return nil, ErrBadOrder
	}
	if fc <= 0 || fc >= fs/2 {
		return nil, ErrBadCutoff
	}
	lp := lowpassKernel(order, fc, fs, kind)
	taps := make([]float64, len(lp))
	for i := range lp {
		taps[i] = -lp[i]
	}
	taps[order/2] += 1
	return &FIR{Taps: taps}, nil
}

// DesignBandPass designs a windowed-sinc band-pass FIR as the difference of
// two low-pass kernels (pass band [f1, f2]). order must be even. This is
// the design used for the paper's 32nd-order 0.05-40 Hz ECG band-pass.
func DesignBandPass(order int, f1, f2, fs float64, kind WindowKind) (*FIR, error) {
	if order < 2 || order%2 != 0 {
		return nil, ErrBadOrder
	}
	if f1 <= 0 || f2 <= f1 || f2 >= fs/2 {
		return nil, ErrBadCutoff
	}
	lo := lowpassKernel(order, f1, fs, kind)
	hi := lowpassKernel(order, f2, fs, kind)
	taps := make([]float64, len(lo))
	for i := range taps {
		taps[i] = hi[i] - lo[i]
	}
	f := &FIR{Taps: taps}
	// Normalize the gain at the passband center to exactly 1 (the same
	// scaling scipy.signal.firwin applies), so that short filters such as
	// the paper's 33-tap design keep unity in-band gain.
	center := (f1 + f2) / 2
	if g := f.FrequencyResponse(center, fs); g > 0 {
		for i := range f.Taps {
			f.Taps[i] /= g
		}
	}
	return f, nil
}

// Apply filters x with f using zero-padded ("same") convolution so that the
// output is aligned with the input and compensated for the group delay of a
// linear-phase filter. The convolution engine — direct three-region dot
// products or FFT overlap-save — is chosen automatically by the n*k cost
// model of useFFTConv.
func (f *FIR) Apply(x []float64) []float64 {
	if len(x) == 0 || len(f.Taps) == 0 {
		return nil
	}
	return f.ApplyTo(make([]float64, len(x)), x)
}

// ApplyTo is Apply writing into dst, which must not alias x and is grown
// when shorter than x. It returns the filtered slice (dst or its
// replacement) and allocates nothing when dst has sufficient capacity.
func (f *FIR) ApplyTo(dst, x []float64) []float64 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 || k == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	delay := (k - 1) / 2
	if useFFTConv(n, k) {
		f.plan().convFFTInto(dst, x, delay)
	} else {
		convDirectInto(dst, x, f.reversed(), delay)
	}
	return dst
}

// ApplyDirect is Apply pinned to the direct three-region engine,
// regardless of the cost model. It exists so the FFT path can be verified
// against it.
func (f *FIR) ApplyDirect(x []float64) []float64 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 || k == 0 {
		return nil
	}
	y := make([]float64, n)
	convDirectInto(y, x, f.reversed(), (k-1)/2)
	return y
}

// ApplyFFT is Apply pinned to the FFT overlap-save engine: identical
// output to ApplyDirect up to floating-point rounding (~1e-12 relative),
// asymptotically cheaper for wide filters.
func (f *FIR) ApplyFFT(x []float64) []float64 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 || k == 0 {
		return nil
	}
	y := make([]float64, n)
	f.plan().convFFTInto(y, x, (k-1)/2)
	return y
}

// ApplyCausal filters x with f as a causal FIR (no group-delay
// compensation), matching what streaming firmware computes sample by
// sample.
func (f *FIR) ApplyCausal(x []float64) []float64 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 || k == 0 {
		return nil
	}
	y := make([]float64, n)
	convDirectInto(y, x, f.reversed(), 0)
	return y
}

// applyCausalTo writes the causal (off = 0) convolution into dst (length
// len(x), no aliasing), choosing the engine by cost. It is the kernel both
// passes of the zero-phase FiltFiltFIR run on.
func (f *FIR) applyCausalTo(dst, x []float64) {
	if useFFTConv(len(x), len(f.Taps)) {
		f.plan().convFFTInto(dst, x, 0)
	} else {
		convDirectInto(dst, x, f.reversed(), 0)
	}
}

// FrequencyResponse evaluates the magnitude response |H(f)| of the filter
// at frequency f (Hz) for sampling rate fs.
func (f *FIR) FrequencyResponse(freq, fs float64) float64 {
	re, im := 0.0, 0.0
	w := 2 * math.Pi * freq / fs
	for n, tap := range f.Taps {
		re += tap * math.Cos(w*float64(n))
		im -= tap * math.Sin(w*float64(n))
	}
	return math.Hypot(re, im)
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1).
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	y := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			y[i+j] += av * bv
		}
	}
	return y
}

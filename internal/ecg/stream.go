package ecg

import "repro/internal/dsp"

// Streaming forms of the ECG conditioning and detection stages. The
// batch pipeline recomputes morphology, filtering and Pan-Tompkins over
// the whole rolling window on every hop; these carry their state across
// pushes so each sample is conditioned exactly once.

// BaselineStream is the streaming form of RemoveBaseline: the
// morphological opening-then-closing baseline estimate subtracted from
// the (delayed) input. Its output matches RemoveBaseline sample for
// sample, including the window clamping at both stream edges. The
// four cascaded erosion/dilation stages need l1-1 + l2-1 samples of
// lookahead (about 0.5 s at the paper's configuration).
type BaselineStream struct {
	stages [4]*dsp.MovExtStream
	raw    *dsp.Ring
	b1, b2 []float64 // inter-stage scratch, reused across pushes
	out    int       // conditioned samples emitted
	la     int
}

// NewBaselineStream builds the streaming baseline remover for cfg.
// The naive-engine flag only selects the cost model of the batch path;
// both engines compute the same sliding extrema, so the stream always
// uses the O(1)-amortized deque kernels.
func NewBaselineStream(cfg BaselineConfig) *BaselineStream {
	l1, l2 := cfg.elementLengths()
	h1l, h1r := (l1-1)/2, l1/2
	h2l, h2r := (l2-1)/2, l2/2
	s := &BaselineStream{}
	// Opening: erosion then dilation with the transposed element.
	s.stages[0] = dsp.NewMovExtStream(h1l, h1r, true)
	s.stages[1] = dsp.NewMovExtStream(h1r, h1l, false)
	// Closing: dilation then erosion with the transposed element.
	s.stages[2] = dsp.NewMovExtStream(h2l, h2r, false)
	s.stages[3] = dsp.NewMovExtStream(h2r, h2l, true)
	for _, st := range s.stages {
		s.la += st.Lookahead()
	}
	// The raw ring's reader is subtract, which lags the newest sample by
	// the cascade lookahead; one sub-chunk rides on top of that.
	s.raw = dsp.NewRing(s.la + dsp.SubChunk + 2)
	return s
}

// RingSamples returns the capacity of the raw-history ring.
func (s *BaselineStream) RingSamples() int { return s.raw.Cap() }

// Lookahead returns the total pipeline latency in samples.
func (s *BaselineStream) Lookahead() int { return s.la }

// Shift returns 0: the baseline estimate is centered.
func (s *BaselineStream) Shift() int { return 0 }

// Push consumes raw ECG samples and appends the baseline-removed
// samples whose estimate is complete. The two scratch buffers ping-pong
// through the cascade: each stage fully consumes its input before the
// buffer is rewritten two stages later, so steady state allocates
// nothing once the buffers have grown to the chunk size.
func (s *BaselineStream) Push(dst, x []float64) []float64 {
	for len(x) > 0 {
		sub := x
		if len(sub) > dsp.SubChunk {
			sub = x[:dsp.SubChunk]
		}
		x = x[len(sub):]
		s.raw.Append(sub)
		a := s.stages[0].Push(s.b1[:0], sub)
		b := s.stages[1].Push(s.b2[:0], a)
		a = s.stages[2].Push(a[:0], b)
		b = s.stages[3].Push(b[:0], a)
		dst = s.subtract(dst, b)
		s.b1, s.b2 = a, b
	}
	return dst
}

// Flush drains the morphology cascade (end-of-stream window clamping)
// and appends the final conditioned samples.
func (s *BaselineStream) Flush(dst []float64) []float64 {
	for i := range s.stages {
		est := s.stages[i].Flush(nil)
		for j := i + 1; j < len(s.stages); j++ {
			est = s.stages[j].Push(nil, est)
		}
		dst = s.subtract(dst, est)
	}
	return dst
}

// subtract emits raw[t] - baseline[t] for each newly available estimate.
func (s *BaselineStream) subtract(dst []float64, est []float64) []float64 {
	for _, b := range est {
		dst = append(dst, s.raw.At(s.out)-b)
		s.out++
	}
	return dst
}

// Reset returns the stream to its initial state.
func (s *BaselineStream) Reset() {
	for _, st := range s.stages {
		st.Reset()
	}
	s.raw.Reset()
	s.out = 0
}

// PTStream is the incremental Pan-Tompkins QRS detector: the band-pass,
// five-point derivative, squaring and moving-window integration run as
// per-sample state machines, and the dual adaptive thresholds, T-wave
// discrimination, search-back and R-refinement operate on two short
// ring buffers (the conditioned input and the band-passed signal; the
// integrated signal needs no history, because every candidate peak
// carries its integrated value with it). It replicates the stages of
// DetectQRS on the conditioned stream, so the R peaks it emits agree
// with the batch detector away from pathological peak chains.
//
// R peaks are emitted exactly once, in strictly increasing order, as
// soon as they are confirmed (accepted or recovered by search-back) and
// the refinement window has arrived: about RefractMs + 100 ms after the
// integrated-signal peak.
type PTStream struct {
	cfg  PTConfig
	fs   float64
	band *dsp.SOSStream
	fbuf []float64 // per-chunk band-pass scratch, reused across pushes

	// Five-point derivative + squaring + moving integration state.
	d0, d1, d2, d3 float64 // last four band-passed samples
	sqRing         []float64
	win            int
	acc            float64

	// Short histories. filt is read by the slope check of a peak being
	// thresholded; raw by the R refinement of an accepted or recovered
	// peak. Each is sized by its reader's horizon (see NewPTStream).
	filt *dsp.Ring // band-passed
	raw  *dsp.Ring // conditioned input

	n      int     // samples consumed
	prevGi float64 // integrated value of sample n-1

	// Candidate detection on the integrated signal (plateau-aware local
	// maxima with refractory suppression, the streaming counterpart of
	// dsp.FindPeaks).
	candStart  int // start of the current rising plateau, -1 when none
	candVal    float64
	pending    int // finalized-candidate-in-waiting
	pendingVal float64
	hasPending bool

	// Threshold initialization from the first two seconds.
	initN            int
	initMax, initSum float64
	inited           bool
	early            []histPeak // candidates finalized before initialization

	// Adaptive threshold state.
	spki, npki, th1 float64
	refractory      int
	tWaveWin        int
	slopeR          int
	halfRefine      int
	nQRS            int
	lastQRS         int
	lastSlope       float64
	rr              [8]float64
	rrLen           int

	// Finalized candidate peaks retained for search-back.
	hist []histPeak

	// Accepted peaks awaiting refinement, and emission bookkeeping.
	accepted    []int
	lastRefined int

	// Counters mirroring Result.
	SearchBack int
	TWaveVeto  int
}

type histPeak struct {
	idx int
	val float64
}

// NewPTStream builds the incremental detector. cfg.BandSOS, when set,
// is used directly (the core device caches it); otherwise the band-pass
// is designed here.
func NewPTStream(cfg PTConfig) (*PTStream, error) {
	cfg = cfg.normalized()
	sos := cfg.BandSOS
	if sos == nil {
		var err error
		if sos, err = DesignPTBandPass(cfg); err != nil {
			return nil, err
		}
	}
	fs := cfg.FS
	win := int(cfg.WindowMs / 1000 * fs)
	if win < 1 {
		win = 1
	}
	s := &PTStream{
		cfg:         cfg,
		fs:          fs,
		band:        dsp.NewSOSStream(sos, 0, false),
		sqRing:      make([]float64, win),
		win:         win,
		candStart:   -1,
		initN:       int(2 * fs),
		refractory:  int(cfg.RefractMs / 1000 * fs),
		tWaveWin:    int(cfg.TWaveMs / 1000 * fs),
		slopeR:      int(0.075 * fs),
		halfRefine:  int(0.10 * fs),
		lastQRS:     -int(cfg.RefractMs / 1000 * fs),
		lastRefined: -1 << 30,
	}
	// Both rings run up to one sub-chunk ahead of the per-sample loop.
	// filt's reader, the slope check, runs when a peak is thresholded:
	// one refractory period after the candidate, or at the end of the
	// threshold initialization for candidates held until then — so it
	// looks back at most the initialization span plus the slope radius.
	// raw's reader, the R refinement, also serves search-back peaks,
	// which reach back over the whole search-back horizon (MaxLag).
	s.filt = dsp.NewRing(s.initN + s.slopeR + dsp.SubChunk)
	s.raw = dsp.NewRing(s.MaxLag() + dsp.SubChunk)
	return s, nil
}

// ptSearchBackSeconds is how long finalized candidate peaks stay
// eligible for search-back: 1.66x the slowest physiological RR with
// ample margin.
const ptSearchBackSeconds = 6

// MaxLag returns the worst-case delay, in samples, from an R peak's
// index to the sample at which Push emits it: a peak recovered by
// search-back can be as old as the search-back horizon, and refinement
// can move it back by the integration window plus the refinement
// half-width. Ordinary peaks are emitted after Lookahead samples and
// peaks held for threshold initialization after at most the 2 s
// initialization span, both far inside this bound.
func (s *PTStream) MaxLag() int {
	return int(ptSearchBackSeconds*s.fs) + s.win + s.halfRefine
}

// RingSamples returns the capacities of the band-passed and conditioned
// history rings.
func (s *PTStream) RingSamples() (filt, raw int) { return s.filt.Cap(), s.raw.Cap() }

// Lookahead returns the worst-case confirmation delay in samples: an
// integrated-signal peak is finalized one refractory period after it
// occurs and refined once the +100 ms window has arrived.
func (s *PTStream) Lookahead() int { return s.refractory + s.halfRefine }

// Push consumes conditioned ECG samples and returns the R peaks
// confirmed by this chunk (absolute indices into the conditioned
// stream), appended to rs.
//
// The band-pass runs over the whole chunk through the pipelined SOS
// kernel before the per-sample detection loop; a chunked causal Push is
// bit-identical to the per-sample recurrence, so detection sees exactly
// the samples it would have one at a time.
func (s *PTStream) Push(rs []int, x []float64) []int {
	if len(x) == 0 {
		return rs
	}
	for len(x) > 0 {
		sub := x
		if len(sub) > dsp.SubChunk {
			sub = x[:dsp.SubChunk]
		}
		x = x[len(sub):]
		s.fbuf = s.band.Push(s.fbuf[:0], sub)
		s.raw.Append(sub)
		s.filt.Append(s.fbuf)
		for k := range sub {
			rs = s.pushSample(rs, s.fbuf[k])
		}
	}
	return rs
}

// pushSample advances the per-sample detection state machines with one
// band-passed sample f (the raw and filtered rings were already extended
// by Push).
func (s *PTStream) pushSample(rs []int, f float64) []int {
	i := s.n

	// Five-point derivative (zero for the first four samples), squared.
	var d float64
	if i >= 4 {
		d = (2*f + s.d0 - s.d2 - 2*s.d3) / 8 * s.fs
	}
	s.d3, s.d2, s.d1, s.d0 = s.d2, s.d1, s.d0, f
	sqv := d * d

	// Causal moving-window integration with warm-up denominator.
	s.acc += sqv
	if i >= s.win {
		s.acc -= s.sqRing[i%s.win]
	}
	s.sqRing[i%s.win] = sqv
	den := s.win
	if i+1 < s.win {
		den = i + 1
	}
	gi := s.acc / float64(den)
	prev := s.prevGi
	s.prevGi = gi
	s.n++

	// Threshold initialization statistics over the first two seconds.
	if i < s.initN {
		if i == 0 || gi > s.initMax {
			s.initMax = gi
		}
		s.initSum += gi
		if i == s.initN-1 {
			s.initThresholds(s.initN)
			for _, p := range s.early {
				s.processPeak(p.idx, p.val)
			}
			s.early = s.early[:0]
		}
	}

	// Candidate local-max detection on the integrated signal.
	if i >= 1 {
		if s.candStart >= 0 {
			switch {
			case gi == s.candVal:
				// plateau continues
			case gi < s.candVal:
				s.offerCandidate(s.candStart, s.candVal)
				s.candStart = -1
			default:
				s.candStart, s.candVal = i, gi
			}
		} else if gi > prev && gi >= 0 {
			s.candStart, s.candVal = i, gi
		}
	}
	// Refractory finalization of the pending candidate: once no future
	// candidate can start within minDist, the pending peak is decided.
	if s.hasPending {
		barrier := i
		if s.candStart >= 0 {
			barrier = s.candStart
		}
		if barrier >= s.pending+s.refractory {
			s.finalize(s.pending, s.pendingVal)
			s.hasPending = false
		}
	}

	return s.drainRefined(rs, false)
}

// offerCandidate applies the minDist suppression of dsp.FindPeaks
// incrementally: within a refractory distance the higher peak wins.
func (s *PTStream) offerCandidate(idx int, val float64) {
	if s.hasPending {
		if idx-s.pending < s.refractory {
			if val > s.pendingVal {
				s.pending, s.pendingVal = idx, val
			}
			return
		}
		s.finalize(s.pending, s.pendingVal)
	}
	s.pending, s.pendingVal = idx, val
	s.hasPending = true
}

// finalize records a suppressed-peak survivor and runs it through the
// adaptive thresholds (or queues it until initialization completes).
func (s *PTStream) finalize(idx int, val float64) {
	s.hist = append(s.hist, histPeak{idx: idx, val: val})
	s.prune()
	if !s.inited {
		s.early = append(s.early, histPeak{idx: idx, val: val})
		return
	}
	s.processPeak(idx, val)
}

// prune drops history peaks older than the search-back horizon.
func (s *PTStream) prune() {
	horizon := s.n - int(ptSearchBackSeconds*s.fs)
	keep := 0
	for keep < len(s.hist) && s.hist[keep].idx < horizon {
		keep++
	}
	if keep > 0 {
		s.hist = append(s.hist[:0], s.hist[keep:]...)
	}
}

func (s *PTStream) initThresholds(n int) {
	mean := 0.0
	if n > 0 {
		mean = s.initSum / float64(n)
	}
	s.spki = 0.25 * s.initMax
	s.npki = 0.5 * mean
	s.th1 = s.npki + 0.25*(s.spki-s.npki)
	s.inited = true
}

// maxSlope mirrors maxSlopeAround on the band-passed ring.
func (s *PTStream) maxSlope(p int) float64 {
	lo := p - s.slopeR
	hi := p + s.slopeR
	if lo < 1 {
		lo = 1
	}
	if m := s.filt.N() - 1; hi > m {
		hi = m
	}
	if min := s.filt.Start() + 1; lo < min {
		lo = min
	}
	best := 0.0
	for i := lo; i <= hi; i++ {
		d := s.filt.At(i) - s.filt.At(i-1)
		if d < 0 {
			d = -d
		}
		if d > best {
			best = d
		}
	}
	return best
}

// accept mirrors the batch acceptPeak: RR bookkeeping, slope capture.
func (s *PTStream) accept(p int) {
	if s.nQRS > 0 {
		rrv := float64(p-s.lastQRS) / s.fs
		if s.rrLen < len(s.rr) {
			s.rr[s.rrLen] = rrv
			s.rrLen++
		} else {
			copy(s.rr[:], s.rr[1:])
			s.rr[len(s.rr)-1] = rrv
		}
	}
	s.nQRS++
	s.lastQRS = p
	s.lastSlope = s.maxSlope(p)
	s.accepted = append(s.accepted, p)
}

// processPeak replicates one iteration of the batch threshold loop for
// the candidate at p with integrated value pk.
func (s *PTStream) processPeak(p int, pk float64) {
	if p-s.lastQRS < s.refractory {
		s.npki = 0.125*pk + 0.875*s.npki
		s.th1 = s.npki + 0.25*(s.spki-s.npki)
		return
	}
	if pk > s.th1 {
		if s.nQRS > 0 && p-s.lastQRS < s.tWaveWin {
			slope := s.maxSlope(p)
			if slope < 0.5*s.lastSlope {
				s.TWaveVeto++
				s.npki = 0.125*pk + 0.875*s.npki
				s.th1 = s.npki + 0.25*(s.spki-s.npki)
				return
			}
		}
		s.accept(p)
		s.spki = 0.125*pk + 0.875*s.spki
	} else {
		s.npki = 0.125*pk + 0.875*s.npki
	}
	s.th1 = s.npki + 0.25*(s.spki-s.npki)

	// Search-back: recover the largest missed peak in a long RR gap.
	if s.cfg.SearchBack && s.rrLen >= 2 && s.nQRS > 0 {
		avg := 0.0
		for i := 0; i < s.rrLen; i++ {
			avg += s.rr[i]
		}
		avg /= float64(s.rrLen)
		if float64(p-s.lastQRS)/s.fs > 1.66*avg {
			lo := s.lastQRS + s.refractory
			hi := p
			best, bestV := -1, s.th1*0.5
			for _, hp := range s.hist {
				if hp.idx <= lo || hp.idx >= hi {
					continue
				}
				if hp.val > bestV {
					best, bestV = hp.idx, hp.val
				}
			}
			if best > 0 {
				s.accepted = append(s.accepted, best)
				s.lastQRS = best
				s.spki = 0.25*bestV + 0.75*s.spki
				s.SearchBack++
			}
		}
	}
}

// drainRefined refines and emits every accepted peak whose refinement
// window has arrived (or everything, at flush).
func (s *PTStream) drainRefined(rs []int, flush bool) []int {
	emitted := 0
	for _, p := range s.accepted {
		if !flush && p+s.halfRefine >= s.n {
			break
		}
		r := p
		if s.cfg.RefineOnRaw {
			lo := p - s.win - s.halfRefine
			hi := p + s.halfRefine
			if m := s.raw.ArgMax(lo, hi); m >= 0 {
				r = m
			}
			if r-s.lastRefined < s.refractory {
				emitted++
				continue // duplicate after refinement: drop (dedupeSorted)
			}
			s.lastRefined = r
		}
		rs = append(rs, r)
		emitted++
	}
	if emitted > 0 {
		s.accepted = append(s.accepted[:0], s.accepted[emitted:]...)
	}
	return rs
}

// Flush ends the stream: the pending candidate is decided, a
// shorter-than-2-s stream initializes from what arrived, and the
// remaining accepted peaks are refined against the final samples.
func (s *PTStream) Flush(rs []int) []int {
	if s.hasPending {
		s.finalize(s.pending, s.pendingVal)
		s.hasPending = false
	}
	if !s.inited {
		s.initThresholds(s.n)
		for _, p := range s.early {
			s.processPeak(p.idx, p.val)
		}
		s.early = s.early[:0]
	}
	return s.drainRefined(rs, true)
}

// Reset returns the detector to its initial state, keeping allocations.
func (s *PTStream) Reset() {
	s.band.Reset()
	s.d0, s.d1, s.d2, s.d3 = 0, 0, 0, 0
	for i := range s.sqRing {
		s.sqRing[i] = 0
	}
	s.acc = 0
	s.filt.Reset()
	s.raw.Reset()
	s.n = 0
	s.prevGi = 0
	s.candStart = -1
	s.hasPending = false
	s.initMax, s.initSum = 0, 0
	s.inited = false
	s.early = s.early[:0]
	s.spki, s.npki, s.th1 = 0, 0, 0
	s.nQRS = 0
	s.lastQRS = -s.refractory
	s.lastSlope = 0
	s.rrLen = 0
	s.hist = s.hist[:0]
	s.accepted = s.accepted[:0]
	s.lastRefined = -1 << 30
	s.SearchBack, s.TWaveVeto = 0, 0
}

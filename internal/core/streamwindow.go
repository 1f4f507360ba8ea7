package core

import (
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/hemo"
	"repro/internal/icg"
)

// WindowStreamer is the original rolling-window streaming engine: every
// HopSeconds it re-runs the whole batch pipeline (baseline removal,
// zero-phase FIR, Pan-Tompkins, ICG conditioning) over the last
// WindowSeconds of samples and emits the beats that became stable. Its
// steady-state cost is therefore O(WindowSeconds) per hop.
//
// It is retained as the measurable baseline for the incremental
// Streamer (stream.go) — the per-hop benchmarks compare the two — and
// as a window-recompute reference implementation. New code should use
// Device.NewStreamer.
type WindowStreamer struct {
	dev *Device

	winN, hopN, marginN int
	ecgBuf, zBuf        []float64
	consumed            int // absolute index of ecgBuf[0]
	lastEmittedR        int // absolute index of the last emitted beat's R
	pushedTotal         int

	// Each hop borrows a scratch arena from the dsp pool and reuses the
	// device's pre-designed filter bank: re-analyzing a window every hop
	// allocates nothing beyond the beats it emits.
	body hemo.BodyConstants
	cal  hemo.Calibration
}

// NewWindowStreamer builds the window-recompute streaming front end.
func (d *Device) NewWindowStreamer(sc StreamConfig) *WindowStreamer {
	sc = sc.withDefaults()
	fs := d.cfg.FS
	cal := hemo.TouchCal()
	if sc.Thoracic {
		cal = hemo.IdentityCal()
	}
	return &WindowStreamer{
		dev:          d,
		winN:         int(sc.WindowSeconds * fs),
		hopN:         int(sc.HopSeconds * fs),
		marginN:      int(sc.MarginSeconds * fs),
		lastEmittedR: -1,
		body:         d.cfg.Body,
		cal:          cal,
	}
}

// Push appends simultaneously sampled ECG and impedance samples (equal
// lengths) and returns the beats completed by this push, in order.
func (s *WindowStreamer) Push(ecgSamples, zSamples []float64) []hemo.BeatParams {
	if len(ecgSamples) != len(zSamples) {
		panic("core: WindowStreamer.Push requires equal-length channels")
	}
	s.ecgBuf = append(s.ecgBuf, ecgSamples...)
	s.zBuf = append(s.zBuf, zSamples...)
	s.pushedTotal += len(ecgSamples)

	var out []hemo.BeatParams
	for len(s.ecgBuf) >= s.winN {
		out = append(out, s.analyzeWindow(false)...)
		// Advance by one hop, keeping window-minus-hop samples of history.
		drop := s.hopN
		if drop > len(s.ecgBuf) {
			drop = len(s.ecgBuf)
		}
		s.ecgBuf = s.ecgBuf[drop:]
		s.zBuf = s.zBuf[drop:]
		s.consumed += drop
	}
	return out
}

// Flush analyzes whatever remains in the buffer (end of session) and
// returns the final beats.
func (s *WindowStreamer) Flush() []hemo.BeatParams {
	if len(s.ecgBuf) < int(s.dev.cfg.FS) {
		return nil
	}
	return s.analyzeWindow(true)
}

// Latency returns the worst-case reporting latency in seconds: a beat
// completing right after a hop waits HopSeconds for the next analysis
// plus MarginSeconds for its RR segment to leave the unstable window
// tail.
func (s *WindowStreamer) Latency() float64 {
	return float64(s.hopN+s.marginN) / s.dev.cfg.FS
}

// analyzeWindow runs the batch pipeline on the current buffer and emits
// beats that are complete, inside the stable region, and not yet emitted.
func (s *WindowStreamer) analyzeWindow(last bool) []hemo.BeatParams {
	fs := s.dev.cfg.FS
	n := len(s.ecgBuf)
	window := n
	if !last && window > s.winN {
		window = s.winN
	}
	ecgW := s.ecgBuf[:window]
	zW := s.zBuf[:window]

	ar := dsp.GetArena()
	defer dsp.PutArena(ar)
	bank := s.dev.bank

	cond := bank.ecgChain.Apply(ar, ecgW)
	ptCfg := ecg.DefaultPT(fs)
	ptCfg.BandSOS = bank.ptSOS
	pt, err := ecg.DetectQRSWith(ar, cond, ptCfg)
	if err != nil || len(pt.RPeaks) < 2 {
		return nil
	}
	icgF := bank.icgChain.Apply(ar, zW)
	dCfg := defaultDetectFor(s.dev.cfg, fs)
	z0 := dsp.Mean(zW)

	limit := window - s.marginN
	if last {
		limit = window
	}
	var out []hemo.BeatParams
	for i := 0; i+1 < len(pt.RPeaks); i++ {
		rAbs := s.consumed + pt.RPeaks[i]
		if rAbs <= s.lastEmittedR {
			continue // already emitted by an earlier window
		}
		if pt.RPeaks[i+1] >= limit {
			break // next window will see this beat in the stable region
		}
		pts, err := icg.DetectBeat(icgF, pt.RPeaks[i], pt.RPeaks[i+1], -1, dCfg)
		if err != nil {
			s.lastEmittedR = rAbs // do not retry a truly bad beat forever
			continue
		}
		bp := hemo.FromPoints(pts, pt.RPeaks[i+1], z0, fs, s.body, s.cal)
		bp.TimeS = float64(rAbs) / fs // absolute session time
		out = append(out, bp)
		s.lastEmittedR = rAbs
	}
	return out
}

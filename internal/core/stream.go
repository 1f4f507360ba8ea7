package core

import (
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/quality"
)

// Streamer processes the two channels incrementally, the way streaming
// firmware must: every sample passes through the stateful conditioning
// chains exactly once (stage.go), the incremental Pan-Tompkins detector
// confirms R peaks as they appear, and the beat delineator analyzes
// each completed RR segment exactly once. Steady-state cost is O(1) per
// sample plus O(beat) per beat — it does not depend on any analysis
// window — and beats are emitted exactly once, in order, with absolute
// session TimeS.
//
// Reporting latency: a beat is emitted once its *closing* R peak is
// confirmed and its ICG refiltering context has arrived, which happens
// Latency() seconds after that R peak entered Push; the Latency method
// computes the same per-stage sum the emission path implements, so the
// value and the behavior cannot drift apart. End-to-end, a beat is
// reported one RR interval plus Latency() after its own R peak — the
// ICG side's 2.5 s settling context dominates at the paper's 250 Hz
// configuration, matching the legacy engine's hop+margin worst case
// while emitting per beat instead of per hop.
type Streamer struct {
	dev *Device
	fs  float64

	ecgStream *ChainStream // baseline removal + zero-phase FIR
	icgStream *ChainStream // -dZ/dt + Butterworth conditioning
	pt        *ecg.PTStream
	delin     *icg.Delineator
	// gate is the per-beat quality gate state (nil when gating is
	// disabled): the same quality.BeatGate the batch Process applies,
	// in streaming form, scoring each beat as its delineation completes.
	gate *quality.GateStream

	// Per-push scratch, reused across pushes.
	condBuf, icgBuf []float64
	rsBuf           []int
	beatsBuf        []icg.BeatAnalysis

	// Confirmed R peaks not yet consumed as beat boundaries: beat k is
	// delimited by rHist[beatIdx], rHist[beatIdx+1].
	rHist   []int
	beatIdx int

	// Contact-health signals (Health): the sample clock, the number of
	// beat attempts consumed (scored and failed), and the closing R of
	// the last one. All three advance deterministically with the input,
	// never with the chunking.
	nSamples    int
	nBeats      int
	lastBeatEnd int
	// beatBase/timeBase offset the *stamps* of emitted events after a
	// snapshot Restore: detector-local indices restart at zero (the DSP
	// state is rebuilt from new samples), but the session's beat count
	// and signal clock continue where the snapshot left them, so the
	// restored event stream and the governor's dwell axis stay
	// monotonic. Zero for a never-restored streamer; Reset clears them.
	beatBase int
	timeBase float64
	// healthFloor, when > 0, makes emit track the onset of the gate
	// EWMA sitting below it (belowSince, a sample index; -1 while at or
	// above). The onset is updated exactly where the EWMA changes — per
	// beat — so a recovery between two beats inside one push chunk is
	// never missed and the below-floor window is chunking-invariant.
	healthFloor float64
	belowSince  int

	// Typed event delivery (Emit): when sink is non-nil, Push/Flush
	// deliver beats, floor transitions and governor mode changes as
	// event.Events instead of returning beat slices. The sink and
	// session stamp are per-session state (cleared by Reset); the armed
	// governor, like healthFloor, is an engine-lifetime policy that
	// survives Reset with its mutable state rewound.
	sink     event.Sink
	sess     uint64
	gov      *Governor
	lastMode PowerMode

	// Causal base-impedance estimate: each beat reports the mean raw Z
	// of the session up to its closing R peak. zSum is the running sum;
	// zCk keeps it at every zCkStride-th sample, and a beat's prefix sum
	// is that checkpoint plus the raw samples after it, added in the
	// same order, so it is bit-identical to a per-sample prefix ring at
	// a stride-th of the memory. zHist holds the raw samples: the gate's
	// ring when gating (it already covers every emitted beat), else the
	// streamer's own. Horizons: see streamHorizon.
	zHist *dsp.Ring
	zCk   *dsp.Ring
	zSum  float64

	body hemo.BodyConstants
	cal  hemo.Calibration
}

// StreamConfig tunes the streaming engines.
type StreamConfig struct {
	// WindowSeconds bounds the analysis history of the incremental
	// engine (the longest analyzable RR segment) and is the rolling
	// window of the legacy WindowStreamer (default 6 s).
	WindowSeconds float64
	// HopSeconds is the re-analysis period of the legacy WindowStreamer
	// (default 1 s); the incremental engine emits per beat and ignores it.
	HopSeconds float64
	// MarginSeconds is the legacy engine's trailing settling margin
	// (default 1.5 s); the incremental engine has no unstable window
	// tail and ignores it.
	MarginSeconds float64
	// Thoracic selects the identity calibration (direct thoracic
	// measurement) instead of the touch-path calibration.
	Thoracic bool
	// LegacyRefilter selects the windowed per-beat high-pass filtfilt in
	// the incremental delineator instead of the rolling forward-pass
	// cache (icg.Delineator.SetLegacyRefilter) — the benchmark baseline
	// for the cache, kept for A/B comparison.
	LegacyRefilter bool
	// DirectFIR pins the streaming zero-phase ECG band-pass to the
	// direct per-sample recurrence instead of the block-carried
	// overlap-save engine (dsp.NewZeroPhaseFIRStreamDirect): the MCU
	// deployment profile, which has no FFT working set in its RAM model
	// (see StreamingRAM), and the A/B baseline for the crossover.
	DirectFIR bool
}

// DefaultStreamConfig returns the firmware defaults.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{WindowSeconds: icg.MaxBeatSeconds, HopSeconds: 1, MarginSeconds: 1.5}
}

func (sc StreamConfig) withDefaults() StreamConfig {
	if sc.WindowSeconds <= 0 {
		sc.WindowSeconds = icg.MaxBeatSeconds
	}
	if sc.HopSeconds <= 0 {
		sc.HopSeconds = 1
	}
	if sc.MarginSeconds <= 0 {
		sc.MarginSeconds = 1.5
	}
	return sc
}

// defaultDetectFor builds the beat-detector configuration the device's
// engines share.
func defaultDetectFor(cfg Config, fs float64) icg.DetectConfig {
	dCfg := icg.DefaultDetect(fs)
	dCfg.XRule = cfg.XRule
	dCfg.BRule = cfg.BRule
	return dCfg
}

// zCkStride is the spacing of the base-impedance prefix checkpoints: a
// beat's prefix sum re-adds at most zCkStride-1 raw samples.
const zCkStride = 32

// streamHorizon is how far back each of a streamer's readers can look,
// derived from the stage chain it is built on. Every history ring is
// sized from it, and the RAM model (StreamingRAM) itemizes the same
// numbers.
type streamHorizon struct {
	maxBeat int // longest analyzable RR interval
	// rLag bounds how far the raw feed can be past an R peak when the
	// QRS detector hands that peak over (see rLagFor).
	rLag int
	// emitLead bounds how far the raw feed can be past a beat's closing
	// R when the beat is emitted: the later of the R arriving (rLag) and
	// the ICG side's lookahead (derivative, alignment and settling
	// context) arriving, plus one sub-chunk.
	emitLead int
}

// rLagFor is the R hand-over lag: the ECG chain's lookahead, the QRS
// detector's worst-case confirmation delay (a search-back peak, see
// ecg.PTStream.MaxLag) and one sub-chunk.
func rLagFor(ecgLookahead, ptMaxLag int) int { return ecgLookahead + ptMaxLag + dsp.SubChunk - 1 }

func newStreamHorizon(maxBeat, rLag, icgLookahead int) streamHorizon {
	return streamHorizon{maxBeat: maxBeat, rLag: rLag, emitLead: max(rLag, icgLookahead+dsp.SubChunk-1)}
}

// gateSamples is the raw-Z ring: a beat is scored from [rLo, rHi) when
// it is emitted, and its base-impedance prefix re-adds the samples after
// the last checkpoint below rHi, which the same window covers.
func (h streamHorizon) gateSamples() int { return h.maxBeat + h.emitLead + 1 }

// zHistSamples is the raw-Z ring of a streamer without a gate, which
// serves only the prefix re-add.
func (h streamHorizon) zHistSamples() int { return h.emitLead + zCkStride }

// zCkSamples is the checkpoint ring over the raw-Z window.
func (h streamHorizon) zCkSamples() int { return (h.emitLead+zCkStride)/zCkStride + 2 }

// NewStreamer builds the incremental streaming front end for the device.
func (d *Device) NewStreamer(sc StreamConfig) *Streamer {
	sc = sc.withDefaults()
	fs := d.cfg.FS
	cal := hemo.TouchCal()
	if sc.Thoracic {
		cal = hemo.IdentityCal()
	}
	bank := d.bank
	ptCfg := ecg.DefaultPT(fs)
	ptCfg.BandSOS = bank.ptSOS
	pt, err := ecg.NewPTStream(ptCfg)
	if err != nil {
		// The cached band-pass always exists; reaching here means the
		// device configuration was tampered with after construction.
		panic("core: streaming QRS detector: " + err.Error())
	}
	ecgStream := bank.ecgChain.NewStream()
	if sc.DirectFIR && !d.cfg.CausalFilters {
		// MCU profile / A/B baseline: same chain, FIR stage pinned to the
		// direct engine. The chain definition still lives in buildChains;
		// only the engine choice differs, never the alignment or edges.
		ecgStream = Chain{baselineStage{cfg: bank.blCfg}, firZeroPhaseDirectStage{f: bank.ecgFIR}}.NewStream()
	}
	dCfg := defaultDetectFor(d.cfg, fs)
	var icgStream *ChainStream
	var lp, hp dsp.SOS
	align, ctx := 0, 0.0
	if d.cfg.CausalFilters {
		// The causal ablation conditions the stream itself: the chain's
		// streaming form equals its batch form sample for sample.
		icgStream = bank.icgChain.NewStream()
		align = icgStream.Shift()
	} else {
		// Zero-phase conditioning cannot be streamed causally; only the
		// derivative runs per sample, and the delineator applies the
		// Butterworth cascade forward-backward per beat segment with a
		// settling context (see icg.Delineator).
		icgStream = Chain{icgDerivStage{fs: fs}}.NewStream()
		lp, hp, ctx = bank.icgLP, bank.icgHP, icg.ContextSeconds
	}
	rLag := rLagFor(ecgStream.Lookahead(), pt.MaxLag())
	delin := icg.NewDelineatorLag(dCfg, lp, hp, align, ctx, sc.WindowSeconds, rLag)
	delin.SetLegacyRefilter(sc.LegacyRefilter)
	h := newStreamHorizon(int(sc.WindowSeconds*fs), rLag, icgStream.Lookahead()+align+delin.Lookahead())
	s := &Streamer{
		belowSince: -1,
		dev:        d,
		fs:         fs,
		ecgStream:  ecgStream,
		icgStream:  icgStream,
		pt:         pt,
		delin:      delin,
		zCk:        dsp.NewRing(h.zCkSamples()),
		body:       d.cfg.Body,
		cal:        cal,
	}
	if d.gate != nil {
		s.gate = d.gate.NewStreamHistory(h.gateSamples())
		s.zHist = s.gate.History()
	} else {
		s.zHist = dsp.NewRing(h.zHistSamples())
	}
	return s
}

// Push appends simultaneously sampled ECG and impedance samples (equal
// lengths) and returns the beats completed by this push, in order.
// When an event sink is armed (Emit) the beats are delivered as
// KindBeat events instead and Push returns nil — the two delivery paths
// carry byte-identical parameters in identical order (the event/legacy
// parity law).
//
// The stages are fed one dsp.SubChunk at a time, so the raw feed never
// runs more than one sub-chunk ahead of the readers of the history
// rings: every ring is sized from its reader's horizon alone, and a
// push of any size emits exactly what the same samples pushed in small
// chunks emit.
func (s *Streamer) Push(ecgSamples, zSamples []float64) []hemo.BeatParams {
	if len(ecgSamples) != len(zSamples) {
		panic("core: Streamer.Push requires equal-length channels")
	}
	var out []hemo.BeatParams
	for {
		n := min(len(zSamples), dsp.SubChunk)
		out = s.push(out, ecgSamples[:n], zSamples[:n])
		ecgSamples, zSamples = ecgSamples[n:], zSamples[n:]
		if len(zSamples) == 0 {
			return out
		}
	}
}

// push runs one sub-chunk through the stages and appends its beats.
func (s *Streamer) push(out []hemo.BeatParams, ecgSamples, zSamples []float64) []hemo.BeatParams {
	for _, v := range zSamples {
		s.zSum += v
		s.nSamples++
		if s.nSamples%zCkStride == 0 {
			s.zCk.Push(s.zSum)
		}
	}
	if s.gate != nil {
		s.gate.Push(zSamples)
	} else {
		s.zHist.Append(zSamples)
	}
	s.condBuf = s.ecgStream.Push(s.condBuf[:0], ecgSamples)
	s.icgBuf = s.icgStream.Push(s.icgBuf[:0], zSamples)

	s.rsBuf = s.pt.Push(s.rsBuf[:0], s.condBuf)
	s.beatsBuf = s.delin.PushICG(s.beatsBuf[:0], s.icgBuf)
	for _, r := range s.rsBuf {
		s.rHist = append(s.rHist, r)
		s.beatsBuf = s.delin.PushR(s.beatsBuf, r)
	}
	return s.emit(out, s.beatsBuf)
}

// zPrefix returns the sum of the raw Z samples [0, end): the checkpoint
// at or below end plus the samples after it, in push order.
func (s *Streamer) zPrefix(end int) float64 {
	c := end / zCkStride
	acc, from := 0.0, 0
	if c > 0 {
		acc, from = s.zCk.At(c-1), c*zCkStride
	}
	for i := from; i < end; i++ {
		acc += s.zHist.At(i)
	}
	return acc
}

// Flush ends the session: the conditioning chains drain their lookahead
// with the batch edge treatment, the detector confirms its tail peaks,
// and the final completed beats are returned.
func (s *Streamer) Flush() []hemo.BeatParams {
	s.condBuf = s.ecgStream.Flush(s.condBuf[:0])
	s.rsBuf = s.pt.Push(s.rsBuf[:0], s.condBuf)
	s.rsBuf = s.pt.Flush(s.rsBuf)

	s.icgBuf = s.icgStream.Flush(s.icgBuf[:0])
	s.beatsBuf = s.delin.PushICG(s.beatsBuf[:0], s.icgBuf)
	for _, r := range s.rsBuf {
		s.rHist = append(s.rHist, r)
		s.beatsBuf = s.delin.PushR(s.beatsBuf, r)
	}
	s.beatsBuf = s.delin.Flush(s.beatsBuf)
	return s.emit(nil, s.beatsBuf)
}

// emit converts completed beat analyses into hemodynamic parameters,
// each scored by the quality gate as it completes. Beat k corresponds
// to the R pair (rHist[beatIdx], rHist[beatIdx+1]); failed beats
// consume their pair without emitting, exactly once (the gate counts
// them against the acceptance rate).
//
// Event ordering law (pinned by the parity tests): per beat attempt the
// sink receives at most one KindBeat, then at most one KindHealth
// (floor transition), then at most one KindMode (governor flip) — all
// stamped with the attempt index and the closing R's signal time, all
// pure functions of the samples pushed so far.
func (s *Streamer) emit(out []hemo.BeatParams, beats []icg.BeatAnalysis) []hemo.BeatParams {
	for i := range beats {
		b := &beats[i]
		rLo, rHi := s.rHist[s.beatIdx], s.rHist[s.beatIdx+1]
		s.beatIdx++
		s.nBeats++
		s.lastBeatEnd = rHi
		if b.Err != nil || b.Points == nil {
			if s.gate != nil {
				s.gate.PushFailed()
			}
			s.afterBeat(rHi)
			continue
		}
		// Causal base impedance: session mean up to the closing R.
		z0 := s.zPrefix(rHi) / float64(rHi)
		bp := hemo.FromPoints(b.Points, rHi, z0, s.fs, s.body, s.cal)
		if s.gate != nil {
			sqi := s.gate.PushBeat(rLo, rHi, b)
			bp.Quality = sqi.Score
			bp.Accepted = sqi.Accepted
		}
		if s.sink != nil {
			s.sink.Emit(event.Event{
				Kind:    event.KindBeat,
				Session: s.sess,
				Beat:    s.beatBase + s.nBeats,
				TimeS:   s.timeBase + float64(rHi)/s.fs,
				Params:  bp,
			})
		} else {
			out = append(out, bp)
		}
		s.afterBeat(rHi)
	}
	// Compact the consumed R history so a long session stays O(1).
	if s.beatIdx > 256 {
		s.rHist = append(s.rHist[:0], s.rHist[s.beatIdx:]...)
		s.beatIdx = 0
	}
	return out
}

// afterBeat runs once per consumed beat attempt, after the gate state
// advanced: health-floor tracking (with its transition event) and the
// armed governor's per-beat step (with its mode-change event). These
// are the only points where the EWMA — and hence either decision — can
// change, so the resulting event stream is chunking-invariant.
func (s *Streamer) afterBeat(rHi int) {
	wasBelow := s.belowSince >= 0
	s.observeHealth(rHi)
	isBelow := s.belowSince >= 0
	tS := s.timeBase + float64(rHi)/s.fs
	if s.sink != nil && isBelow != wasBelow {
		s.sink.Emit(event.Event{
			Kind:       event.KindHealth,
			Session:    s.sess,
			Beat:       s.beatBase + s.nBeats,
			TimeS:      tS,
			AcceptEWMA: s.acceptEWMA(),
			Below:      isBelow,
			Floor:      s.healthFloor,
		})
	}
	if s.gov != nil {
		// Quality-only governor step: full battery and full yield, so
		// the mode is a pure function of the pushed samples (the gate's
		// per-beat accept EWMA). Battery-aware policies belong to the
		// caller, who has the battery state the stream does not.
		mode := s.gov.Decide(tS, 100, 1, s.acceptEWMA())
		if mode != s.lastMode {
			if s.sink != nil {
				s.sink.Emit(event.Event{
					Kind:       event.KindMode,
					Session:    s.sess,
					Beat:       s.beatBase + s.nBeats,
					TimeS:      tS,
					AcceptEWMA: s.gov.AcceptEWMA(),
					Mode:       int(mode),
					PrevMode:   int(s.lastMode),
				})
			}
			s.lastMode = mode
		}
	}
}

// acceptEWMA is the gate's per-beat accept-rate EWMA, honoring the
// zero-beats contract when gating is disabled.
func (s *Streamer) acceptEWMA() float64 {
	if s.gate == nil {
		return 1
	}
	return s.gate.AcceptEWMA()
}

// Emit arms typed event delivery: subsequent Push and Flush calls
// return nil and instead deliver each completed beat as a KindBeat
// event to sink, along with KindHealth floor transitions (when
// SetHealthFloor armed a floor) and KindMode governor flips (when
// ArmGovernor armed a policy) — at the point they become true, in
// per-beat order, synchronously on the pushing goroutine. session
// stamps every event (0 for a bare streamer). Passing a nil sink
// disarms delivery and restores the returned-slice behavior. The sink
// is per-session state: Reset clears it.
func (s *Streamer) Emit(sink event.Sink, session uint64) {
	s.sink = sink
	s.sess = session
}

// ArmGovernor attaches a PMU policy whose hysteresis governor is
// stepped once per beat attempt on the gate's accept-rate EWMA (battery
// and yield pinned to their best case — the stream has no battery);
// quality-driven mode changes are delivered as KindMode events when a
// sink is armed. Like the health floor, the policy is engine-lifetime
// configuration: it survives Reset with its mutable state rewound.
func (s *Streamer) ArmGovernor(p PMU) {
	s.gov = p.NewGovernor()
	s.lastMode = ModeContinuous
}

// Latency returns the worst-case delay in seconds from a beat's closing
// R peak entering Push to the beat being emitted: the conditioning
// chains' lookahead plus the QRS detector's confirmation-and-refinement
// lookahead on the ECG side, or the ICG chain's lookahead plus its
// group-delay re-alignment on the impedance side, whichever is larger.
// (End-to-end latency from the beat's own R peak adds one RR interval,
// since the beat is delimited by the next R.) This is the same formula
// the engine's emission path implements, so the value and the behavior
// cannot drift apart.
func (s *Streamer) Latency() float64 {
	ecgSide := s.ecgStream.Lookahead() + s.pt.Lookahead()
	icgSide := s.icgStream.Lookahead() + s.icgStream.Shift() + s.delin.Lookahead()
	n := ecgSide
	if icgSide > n {
		n = icgSide
	}
	return float64(n) / s.fs
}

// AcceptRate returns the quality gate's acceptance rate over the beats
// processed so far — failed delineations count as rejected — or 1 when
// gating is disabled. Feed it to PMU.DecideGated: sustained low
// acceptance means bad contact is wasting processing energy.
//
// Zero-beats contract: before any beat has been processed the rate is
// exactly 1 — never 0 or NaN — matching quality.GateStream.AcceptRate,
// Output.AcceptRate and session.Session.AcceptRate. A fresh stream has
// shown no evidence of bad contact; the optimistic default keeps PMU
// policies in ModeContinuous through warmup.
func (s *Streamer) AcceptRate() float64 {
	if s.gate == nil {
		return 1
	}
	return s.gate.AcceptRate()
}

// SetHealthFloor arms per-beat tracking of the accept-rate EWMA
// sitting below floor (StreamHealth.RateBelowSinceS); 0 disarms it.
// The session engine sets it from HealthConfig.EvictBelowRate when a
// streamer enters its pool; it survives Reset (the floor is an
// engine-lifetime constant, not per-stream state). Changing the floor
// discards any tracked onset — it was measured against the old floor
// and would otherwise report a stale (or, after re-arming, instantly
// evictable) window.
func (s *Streamer) SetHealthFloor(floor float64) {
	s.healthFloor = floor
	s.belowSince = -1
}

// observeHealth runs once per consumed beat attempt, right after the
// gate state advanced: the only points where the EWMA can change, so
// the below-floor onset is exact regardless of chunking.
func (s *Streamer) observeHealth(rHi int) {
	if s.healthFloor <= 0 || s.gate == nil {
		return
	}
	if s.gate.AcceptEWMA() < s.healthFloor {
		if s.belowSince < 0 {
			s.belowSince = rHi
		}
	} else {
		s.belowSince = -1
	}
}

// StreamHealth is a snapshot of a streamer's contact-health signals.
// Every field is a pure function of the samples pushed so far — the
// EWMA advances per beat, the clocks per sample — so two streamers fed
// the same input under any chunking report identical snapshots at the
// same sample position (the gate parity law lifted to the health layer).
type StreamHealth struct {
	// AcceptEWMA is the per-beat accept-rate EWMA
	// (quality.GateStream.AcceptEWMA); 1 before any beat or when gating
	// is disabled.
	AcceptEWMA float64
	// Beats counts beat attempts consumed so far, scored and failed.
	Beats int
	// Samples is the exact sample count pushed (SignalS is this divided
	// by the rate; consumers needing integers should use Samples rather
	// than re-deriving them from seconds, which truncates).
	Samples int
	// LastBeatS is the signal time (seconds) of the last consumed
	// beat's closing R peak; 0 before any beat.
	LastBeatS float64
	// SignalS is the total signal time pushed (seconds).
	SignalS float64
	// RateBelowSinceS is the signal time (seconds) of the beat at which
	// the EWMA last dropped below the armed health floor
	// (SetHealthFloor) and has stayed below since — updated per beat,
	// the only points where the EWMA changes, so an intra-chunk
	// recovery always resets it. -1 while at/above the floor, when no
	// floor is armed, or when gating is disabled.
	RateBelowSinceS float64
}

// Health reports the streamer's contact-health signals; the session
// engine's eviction policy (session.HealthConfig) is built on it.
func (s *Streamer) Health() StreamHealth {
	h := StreamHealth{
		AcceptEWMA:      1,
		Beats:           s.nBeats,
		Samples:         s.nSamples,
		LastBeatS:       float64(s.lastBeatEnd) / s.fs,
		SignalS:         float64(s.nSamples) / s.fs,
		RateBelowSinceS: -1,
	}
	if s.gate != nil {
		h.AcceptEWMA = s.gate.AcceptEWMA()
	}
	if s.belowSince >= 0 {
		h.RateBelowSinceS = float64(s.belowSince) / s.fs
	}
	return h
}

// AcceptCounts returns how many beats the gate accepted out of all it
// saw (0, 0 when gating is disabled).
func (s *Streamer) AcceptCounts() (accepted, total int) {
	if s.gate == nil {
		return 0, 0
	}
	return s.gate.Counts()
}

// Reset returns the streamer to its initial state, keeping every buffer
// and filter allocation, so pooled engines can reuse it across sessions.
func (s *Streamer) Reset() {
	s.ecgStream.Reset()
	s.icgStream.Reset()
	s.pt.Reset()
	s.delin.Reset()
	if s.gate != nil {
		s.gate.Reset()
	}
	s.rHist = s.rHist[:0]
	s.beatIdx = 0
	s.nSamples = 0
	s.nBeats = 0
	s.lastBeatEnd = 0
	s.beatBase = 0
	s.timeBase = 0
	s.belowSince = -1 // healthFloor deliberately survives Reset
	if s.gate == nil {
		s.zHist.Reset() // the gate's Reset rewinds its ring
	}
	s.zCk.Reset()
	s.zSum = 0
	s.sink = nil // the sink and stamp are per-session; the armed
	s.sess = 0   // governor POLICY survives, its state rewinds
	if s.gov != nil {
		s.gov.Reset()
		s.lastMode = ModeContinuous
	}
}

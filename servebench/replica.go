package main

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/quality"
)

// The stage rows of the layer table, in the order the replica runs
// them. Rows before stDelin are per sample pair, the rest per beat.
const (
	stGateRing = iota
	stBaseline
	stFIR
	stDeriv
	stPT
	stDelin
	stGateBeat
	stHemo
	nStages
)

var stageRows = [nStages]string{
	"core.gate_ring_ns_per_pair",
	"core.ecg_baseline_ns_per_pair",
	"core.ecg_fir_ns_per_pair",
	"core.icg_deriv_ns_per_pair",
	"core.pantompkins_ns_per_pair",
	"core.delineator_ns_per_beat",
	"core.gate_beat_ns_per_beat",
	"core.hemo_ns_per_beat",
}

// stageClock accumulates span time and span counts per stage.
type stageClock struct {
	ns    [nStages]int64
	spans [nStages]int64
}

func (c *stageClock) end(st int, t0 time.Time) {
	c.ns[st] += int64(time.Since(t0))
	c.spans[st]++
}

// These mirror core's streaming defaults: StreamConfig.WindowSeconds
// and the delineator's refiltering context. The fidelity check fails
// loudly if either drifts.
const (
	windowSeconds = 6
	icgCtxSeconds = 2.5
)

// replicaDesign holds the filters core.Device designs for its
// streamers, rebuilt from the same public design functions.
type replicaDesign struct {
	fs     float64
	fir    *dsp.FIR
	lp, hp dsp.SOS
	pt     ecg.PTConfig
	bl     ecg.BaselineConfig
	detect icg.DetectConfig
	gate   *quality.BeatGate
	body   hemo.BodyConstants
	cal    hemo.Calibration
}

func newReplicaDesign(dev *core.Device) (*replicaDesign, error) {
	cfg := dev.Config()
	if cfg.CausalFilters {
		return nil, errors.New("stage replica covers the zero-phase device only")
	}
	d := &replicaDesign{fs: cfg.FS, gate: dev.Gate(), body: cfg.Body, cal: hemo.TouchCal()}
	var err error
	if d.fir, err = ecg.DefaultBandPass(d.fs).Design(); err != nil {
		return nil, err
	}
	d.fir.Prepare()
	if d.lp, d.hp, err = icg.DefaultFilter(d.fs).Design(); err != nil {
		return nil, err
	}
	d.pt = ecg.DefaultPT(d.fs)
	if d.pt.BandSOS, err = ecg.DesignPTBandPass(d.pt); err != nil {
		return nil, err
	}
	d.bl = ecg.DefaultBaseline(d.fs)
	d.bl.Naive = cfg.NaiveMorph
	d.detect = icg.DefaultDetect(d.fs)
	d.detect.XRule = cfg.XRule
	d.detect.BRule = cfg.BRule
	return d, nil
}

// replica is core.Streamer taken apart into its stages, composed
// exactly as Device.NewStreamer composes them, with a span around each
// stage call. It emits the KindBeat events the streamer would.
type replica struct {
	d    *replicaDesign
	clk  *stageClock
	emit func(event.Event)

	gate  *quality.GateStream
	bl    *ecg.BaselineStream
	fir   *dsp.FIRStream
	deriv *dsp.DerivStream
	pt    *ecg.PTStream
	delin *icg.Delineator

	zPrefix *dsp.Ring
	zSum    float64

	rHist   []int
	beatIdx int
	nBeats  int

	mid, cond, icgBuf []float64
	rs                []int
	beats             []icg.BeatAnalysis
}

func (d *replicaDesign) newReplica(clk *stageClock, emit func(event.Event)) (*replica, error) {
	pt, err := ecg.NewPTStream(d.pt)
	if err != nil {
		return nil, err
	}
	r := &replica{
		d: d, clk: clk, emit: emit,
		bl:      ecg.NewBaselineStream(d.bl),
		fir:     dsp.NewZeroPhaseFIRStream(d.fir),
		deriv:   dsp.NewDerivStream(d.fs, -1),
		pt:      pt,
		delin:   icg.NewDelineator(d.detect, d.lp, d.hp, 0, icgCtxSeconds, windowSeconds),
		zPrefix: dsp.NewRing(int(8 * d.fs)),
	}
	if d.gate != nil {
		r.gate = d.gate.NewStream()
	}
	return r, nil
}

// Push mirrors core.Streamer.Push.
func (r *replica) Push(ecgS, zS []float64) {
	for _, v := range zS {
		r.zSum += v
		r.zPrefix.Push(r.zSum)
	}
	if r.gate != nil {
		t := time.Now()
		r.gate.Push(zS)
		r.clk.end(stGateRing, t)
	}
	t := time.Now()
	r.mid = r.bl.Push(r.mid[:0], ecgS)
	r.clk.end(stBaseline, t)
	t = time.Now()
	r.cond = r.fir.Push(r.cond[:0], r.mid)
	r.clk.end(stFIR, t)
	t = time.Now()
	r.icgBuf = r.deriv.Push(r.icgBuf[:0], zS)
	r.clk.end(stDeriv, t)
	t = time.Now()
	r.rs = r.pt.Push(r.rs[:0], r.cond)
	r.clk.end(stPT, t)
	r.delineate(false)
}

// Flush mirrors core.Streamer.Flush, including the chain's flush order:
// each stage's tail passes through the stages after it.
func (r *replica) Flush() {
	t := time.Now()
	r.mid = r.bl.Flush(r.mid[:0])
	r.clk.end(stBaseline, t)
	t = time.Now()
	r.cond = r.fir.Push(r.cond[:0], r.mid)
	r.cond = r.fir.Flush(r.cond)
	r.clk.end(stFIR, t)
	t = time.Now()
	r.rs = r.pt.Push(r.rs[:0], r.cond)
	r.rs = r.pt.Flush(r.rs)
	r.clk.end(stPT, t)
	t = time.Now()
	r.icgBuf = r.deriv.Flush(r.icgBuf[:0])
	r.clk.end(stDeriv, t)
	r.delineate(true)
}

func (r *replica) delineate(flush bool) {
	t := time.Now()
	r.beats = r.delin.PushICG(r.beats[:0], r.icgBuf)
	for _, rp := range r.rs {
		r.rHist = append(r.rHist, rp)
		r.beats = r.delin.PushR(r.beats, rp)
	}
	if flush {
		r.beats = r.delin.Flush(r.beats)
	}
	r.clk.end(stDelin, t)
	r.emitBeats()
}

// emitBeats mirrors core.Streamer.emit for a streamer without health
// floor or governor (the serving default).
func (r *replica) emitBeats() {
	for i := range r.beats {
		b := &r.beats[i]
		rLo, rHi := r.rHist[r.beatIdx], r.rHist[r.beatIdx+1]
		r.beatIdx++
		r.nBeats++
		if b.Err != nil || b.Points == nil {
			if r.gate != nil {
				t := time.Now()
				r.gate.PushFailed()
				r.clk.end(stGateBeat, t)
			}
			continue
		}
		z0 := r.zPrefix.At(rHi-1) / float64(rHi)
		t := time.Now()
		bp := hemo.FromPoints(b.Points, rHi, z0, r.d.fs, r.d.body, r.d.cal)
		r.clk.end(stHemo, t)
		if r.gate != nil {
			t = time.Now()
			sqi := r.gate.PushBeat(rLo, rHi, b)
			r.clk.end(stGateBeat, t)
			bp.Quality = sqi.Score
			bp.Accepted = sqi.Accepted
		}
		r.emit(event.Event{
			Kind:   event.KindBeat,
			Beat:   r.nBeats,
			TimeS:  float64(rHi) / r.d.fs,
			Params: bp,
		})
	}
	if r.beatIdx > 256 {
		r.rHist = append(r.rHist[:0], r.rHist[r.beatIdx:]...)
		r.beatIdx = 0
	}
}

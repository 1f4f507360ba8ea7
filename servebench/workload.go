package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/physio"
)

// spec is one workload: a fixed traffic shape whose inputs are drawn
// from the seed.
type spec struct {
	name     string
	sessions int
	chunk    int // samples per device push
	// paced selects the open loop: each session pushes one chunk every
	// period, on a schedule that does not slow when the server does.
	paced  bool
	period time.Duration
	// rate is the closed loop's expected pairs/s; it only sizes the
	// closed phase so that it lasts about a third of --seconds on a
	// 2-vCPU machine.
	rate float64
	// latencyPeriod paces the open-loop phase a closed-loop workload
	// runs after its capacity phase, so that beat latency is measured
	// with headroom: in a saturated closed loop it would only be the
	// time to drain whatever the socket buffers hold.
	latencyPeriod time.Duration
	wal           bool
	// offsets is how many distinct start offsets each subject's
	// recording offers; sessions share inputs, never state.
	offsets int
	// traceSessions and traceSignalS size the traced run's replay: the
	// first traceSessions sessions, traceSignalS seconds of signal each
	// (at --seconds 10).
	traceSessions int
	traceSignalS  float64
}

var specs = []spec{
	{
		name: "fleet", sessions: 2048, chunk: 50, rate: 3.5e6, latencyPeriod: 200 * time.Millisecond, offsets: 16,
		traceSessions: 512, traceSignalS: 10,
	},
	{
		name: "paced", sessions: 1024, chunk: 50, paced: true, period: 100 * time.Millisecond, offsets: 16,
		traceSessions: 512, traceSignalS: 10,
	},
	{
		name: "tiny-frames", sessions: 64, chunk: 1, rate: 9e5, latencyPeriod: time.Millisecond, offsets: 3,
		traceSessions: 64, traceSignalS: 20,
	},
	{
		name: "durable", sessions: 2048, chunk: 50, paced: true, period: 200 * time.Millisecond, wal: true, offsets: 16,
		traceSessions: 512, traceSignalS: 10,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	fs = 250.0 // device sampling rate (core.DefaultConfig)
	// offsetStep spaces the start offsets into a recording; 1.37 s is
	// no multiple of a plausible RR interval.
	offsetStep = 342
	subjects   = 5 // physio subjects 1..5
)

// recording is one subject's pre-synthesized acquisition.
type recording struct{ ecg, z []float64 }

// sessionInput is what the seed picks for one session.
type sessionInput struct {
	subject int // 0-based index into the recordings
	offset  int // start sample
	phase   time.Duration
}

// key identifies the session's input; sessions with equal keys receive
// identical samples, so they share one reference hash.
func (si sessionInput) key() int { return si.subject*1_000_000 + si.offset }

// plan is a workload instantiated for one seed and run length.
type plan struct {
	spec
	chunks int // chunks each session pushes
	inputs []sessionInput
	recs   []recording
	recLen int
}

func (p *plan) pairsPerSession() int { return p.chunks * p.chunk }

// samples returns session i's input.
func (p *plan) samples(i int) (ecg, z []float64) {
	in := p.inputs[i]
	r := p.recs[in.subject]
	n := p.pairsPerSession()
	return r.ecg[in.offset : in.offset+n], r.z[in.offset : in.offset+n]
}

// chunkOf returns session i's chunk k.
func (p *plan) chunkOf(i, k int) (ecg, z []float64) {
	e, z := p.samples(i)
	lo := k * p.chunk
	return e[lo : lo+p.chunk], z[lo : lo+p.chunk]
}

// newPlan draws the per-session inputs from the seed. sessions and
// chunks are the sizes of this run (the traced run replays a subset).
func newPlan(s spec, seed int64, sessions, chunks int) *plan {
	p := &plan{spec: s, chunks: chunks}
	p.sessions = sessions
	rng := rand.New(rand.NewSource(seed))
	p.inputs = make([]sessionInput, sessions)
	for i := range p.inputs {
		p.inputs[i] = sessionInput{
			subject: rng.Intn(subjects),
			offset:  rng.Intn(s.offsets) * offsetStep,
		}
		if s.paced {
			p.inputs[i].phase = time.Duration(rng.Int63n(int64(s.period)))
		}
	}
	p.recLen = (s.offsets-1)*offsetStep + p.pairsPerSession()
	return p
}

// latencySpec is the open-loop phase of a closed-loop workload: the
// same sessions and chunking, each session paced at latencyPeriod.
func (s spec) latencySpec() spec {
	s.paced, s.period = true, s.latencyPeriod
	return s
}

// fullSize returns the session count and chunks per session of a
// workload's untraced run, scaled by scale (1 in the benchmark; tests
// shrink it).
func fullSize(s spec, seconds, scale float64) (sessions, chunks int) {
	sessions = max(1, int(math.Round(float64(s.sessions)*scale)))
	if s.paced {
		chunks = int(seconds * float64(time.Second) / float64(s.period))
	} else {
		pairs := seconds * s.rate * scale / float64(sessions)
		chunks = int(pairs) / s.chunk
	}
	return sessions, max(chunks, 1)
}

// traceSize returns the traced run's subset: the first sessions, each
// with its first chunks.
func traceSize(s spec, seconds, scale float64) (sessions, chunks int) {
	sessions = max(1, int(math.Round(float64(s.traceSessions)*scale)))
	sessions = min(sessions, s.sessions)
	signal := s.traceSignalS * seconds / 10
	chunks = int(signal*fs) / s.chunk
	return sessions, max(chunks, 1)
}

// synthesize builds the five subjects' recordings on the device's
// acquisition model. It is set-up work; the generator is never timed.
func (p *plan) synthesize(dev *core.Device) error {
	seconds := float64(p.recLen)/fs + 1
	p.recs = make([]recording, subjects)
	for i := range p.recs {
		sub, ok := physio.SubjectByID(i + 1)
		if !ok {
			return fmt.Errorf("physio subject %d missing", i+1)
		}
		acq, err := dev.Acquire(&sub, seconds)
		if err != nil {
			return fmt.Errorf("acquire subject %d: %w", i+1, err)
		}
		if len(acq.ECG) < p.recLen {
			return fmt.Errorf("subject %d: %d samples synthesized, need %d", i+1, len(acq.ECG), p.recLen)
		}
		p.recs[i] = recording{ecg: acq.ECG, z: acq.Z}
	}
	return nil
}

package core

import (
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/icg"
)

// RAM budgeting. The STM32L151 of Table I has 48 KB of RAM; a 30-second
// two-channel acquisition at 250 Hz held as 32-bit samples already needs
// 60 KB, so the firmware cannot process sessions in batch. The
// incremental streaming engine (stream.go), whose history rings are
// bounded by detector horizons rather than a recording length, is what
// actually fits — this file quantifies both, and the tests pin the
// conclusion.

// RAMBudget itemizes the working set of a processing mode.
type RAMBudget struct {
	Mode        string
	SampleBytes int // bytes per stored sample (firmware uses float32)
	Items       []RAMItem
}

// RAMItem is one buffer of the working set. Samples is the sample
// count of a history ring (0 for items that are not rings).
type RAMItem struct {
	Name    string
	Bytes   int
	Samples int
}

// Total sums the working set.
func (r RAMBudget) Total() int {
	t := 0
	for _, it := range r.Items {
		t += it.Bytes
	}
	return t
}

// BatchRAM returns the working set of whole-session batch processing:
// both raw channels plus the conditioned ECG and filtered ICG tracks.
func BatchRAM(fs, seconds float64) RAMBudget {
	const sampleBytes = 4 // float32 on the MCU
	n := int(fs * seconds)
	buf := n * sampleBytes
	return RAMBudget{
		Mode:        "batch",
		SampleBytes: sampleBytes,
		Items: []RAMItem{
			{Name: "ecg-raw", Bytes: buf},
			{Name: "z-raw", Bytes: buf},
			{Name: "ecg-conditioned", Bytes: buf},
			{Name: "icg-filtered", Bytes: buf},
			{Name: "detector-state", Bytes: 2 * 1024},
		},
	}
}

// StreamingRAM returns the working set of the incremental streaming
// engine at firmware float32 widths: no rolling windows are
// re-analyzed, but the stages keep bounded history rings, each sized
// from its reader's horizon — the same horizon NewStreamer sizes the
// rings from (streamHorizon), so every ring item here has exactly the
// sample count of the ring a streamer allocates.
//
// The model describes the MCU deployment profile, which pins the ECG
// band-pass to the direct recurrence (StreamConfig.DirectFIR): the
// server-side overlap-save engine adds an FFT working set (a 2 KB carry
// block per stream, plus a kernel spectrum and a transform block shared
// across streams) that buys 2x throughput on wide kernels but has no
// place in a 48 KB budget. It panics if fs admits no filter design.
func StreamingRAM(fs float64, sc StreamConfig) RAMBudget {
	const sampleBytes = 4
	sc = sc.withDefaults()
	bl := ecg.NewBaselineStream(ecg.DefaultBaseline(fs))
	fir, err := ecg.DefaultBandPass(fs).Design()
	if err != nil {
		panic("core: StreamingRAM: " + err.Error())
	}
	pt, err := ecg.NewPTStream(ecg.DefaultPT(fs))
	if err != nil {
		panic("core: StreamingRAM: " + err.Error())
	}
	lp, hp, err := icg.DefaultFilter(fs).Design()
	if err != nil {
		panic("core: StreamingRAM: " + err.Error())
	}
	rLag := rLagFor(bl.Lookahead()+dsp.NewZeroPhaseFIRStreamDirect(fir).Lookahead(), pt.MaxLag())
	delin := icg.NewDelineatorLag(icg.DefaultDetect(fs), lp, hp, 0, icg.ContextSeconds, sc.WindowSeconds, rLag)
	h := newStreamHorizon(int(sc.WindowSeconds*fs), rLag, dsp.NewDerivStream(fs, -1).Lookahead()+delin.Lookahead())
	ptFilt, ptRaw := pt.RingSamples()
	ring := func(name string, n int) RAMItem {
		return RAMItem{Name: name, Bytes: n * sampleBytes, Samples: n}
	}
	return RAMBudget{
		Mode:        "streaming",
		SampleBytes: sampleBytes,
		Items: []RAMItem{
			// Delay lines, monotonic deques and biquad registers of the
			// conditioning chains and the QRS band-pass.
			{Name: "filter-state", Bytes: 2 * 1024},
			// Baseline remover's raw ECG: its lookahead plus a sub-chunk.
			ring("baseline-history", bl.RingSamples()),
			// Pan-Tompkins band-passed history (slope checks) and
			// conditioned history (R refinement over the search-back
			// horizon).
			ring("qrs-history", ptFilt+ptRaw),
			// -dZ/dt forward-pass history: the longest beat, the
			// low-pass guard before it and how far the feed runs past
			// its closing R (the later of the R and the context).
			ring("icg-history", delin.RingSamples()),
			// The quality gate's raw-Z history: the longest beat plus
			// how far the feed runs past its closing R when it is
			// emitted.
			ring("gate-history", h.gateSamples()),
			// Base-impedance prefix checkpoints over the raw-Z window.
			ring("z-checkpoints", h.zCkSamples()),
			// Per-beat zero-phase refiltering window: the longest beat,
			// the guard before it and the settling context after it.
			{Name: "refilter-scratch", Bytes: delin.WindowSamples() * sampleBytes},
			{Name: "beat-queue", Bytes: 512},
		},
	}
}

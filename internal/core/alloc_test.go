package core

import (
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/physio"
)

// Allocation regression tests for the steady-state processing paths.
// The filter bank is designed once per Device, all full-length DSP
// intermediates live in the pooled scratch arena, the per-beat
// characteristic-point detector draws its intermediates from the same
// arena and writes its results into one block (icg.DetectBeatInto),
// the gate streams are pooled, and hemo.SeriesWith/SummarizeGated
// allocate exact-size or shared-scratch buffers — so a warmed-up
// Process only allocates what the Output retains. The seed
// implementation allocated ~2200 objects and ~2.6 MB per 30 s window;
// PR 1 brought that to ~1000, the incremental-engine PR to ~400, and
// the quality-gate PR to ~340 (with gating enabled). The budgets lock
// the reductions in with headroom for noise.
func TestProcessSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the arena pool and the filter caches.
	if _, err := d.Process(acq); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.Process(acq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 350 {
		t.Errorf("steady-state Process allocates %.0f objects/run, budget 350 (seed: ~2200, PR 2: ~400)", allocs)
	}
}

// The incremental streaming engine conditions every sample exactly once
// and analyzes each beat exactly once, so a steady-state 1 s hop must
// allocate almost nothing: the emitted beat slice plus a handful of
// per-beat records. The rolling filtfilt cache (PR 7) cut the per-beat
// refilter scratch to ~14 objects/hop measured; the budget rides just
// above that. (The retained window-recompute engine spends ~50
// objects and ~43 KB per hop on the same input — the per-hop benchmarks
// in bench_test.go track the ratio, which must stay >= 3x.)
func TestStreamerSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	st := d.NewStreamer(DefaultStreamConfig())
	hop := 250
	pos := 0
	push := func() {
		end := pos + hop
		if end > len(acq.ECG) {
			pos = 0
			end = hop
		}
		st.Push(acq.ECG[pos:end], acq.Z[pos:end])
		pos = end
	}
	// Warm up: fill delay lines and settle the detectors.
	for i := 0; i < 10; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(10, push)
	if allocs > 20 {
		t.Errorf("steady-state Push allocates %.0f objects/hop, budget 20 (window engine: ~50)", allocs)
	}
}

// Typed event delivery must add ZERO allocations per beat on the
// streaming hot path: an Event is a flat value built on the stack and
// copied into the Buffer sink's preallocated ring, so the armed path
// allocates no more than the legacy path (which pays for the returned
// beat slice the sink path does not build). Both streamers replay the
// identical hop schedule, so the comparison is exact, not statistical.
func TestStreamerEventDeliveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	hop := 250
	run := func(st *Streamer, push func(e, z []float64)) float64 {
		pos := 0
		step := func() {
			end := pos + hop
			if end > len(acq.ECG) {
				pos = 0
				end = hop
			}
			push(acq.ECG[pos:end], acq.Z[pos:end])
			pos = end
		}
		for i := 0; i < 10; i++ {
			step()
		}
		return testing.AllocsPerRun(10, step)
	}
	legacy := d.NewStreamer(DefaultStreamConfig())
	legacyAllocs := run(legacy, func(e, z []float64) { legacy.Push(e, z) })

	st := d.NewStreamer(DefaultStreamConfig())
	buf := event.NewBuffer(256)
	st.Emit(buf, 1)
	st.SetHealthFloor(0.2)
	dst := make([]event.Event, 0, 256)
	evAllocs := run(st, func(e, z []float64) {
		st.Push(e, z)
		dst = buf.Drain(dst[:0])
	})
	if evAllocs > legacyAllocs {
		t.Errorf("event-armed Push allocates %.0f objects/hop, legacy path %.0f — event delivery must be free",
			evAllocs, legacyAllocs)
	}
	if evAllocs > 20 {
		t.Errorf("event-armed Push allocates %.0f objects/hop, budget 20", evAllocs)
	}
}

// A streamer's live heap is its per-session state: history rings sized
// to their readers' horizons, filter registers and small per-push
// buffers; per-beat and per-block scratch is borrowed from the dsp pool
// and the FIR kernel spectrum is shared. Warming 256 streamers on 20 s
// of 50-sample pushes (the serving chunk) measured 96.8 KiB each (the
// power-of-two rings, per-session arenas and private kernel spectra
// before it measured 192 KiB); the budget is that plus 10%.
func TestStreamerRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap usage")
	}
	const (
		n        = 256
		budgetKB = 96.8 * 1.1
	)
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 20)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	sts := make([]*Streamer, n)
	before := live()
	for i := range sts {
		st := d.NewStreamer(DefaultStreamConfig())
		for pos := 0; pos+50 <= len(acq.ECG); pos += 50 {
			st.Push(acq.ECG[pos:pos+50], acq.Z[pos:pos+50])
		}
		sts[i] = st
	}
	after := live()
	runtime.KeepAlive(sts)
	perKB := float64(after-before) / n / 1024
	t.Logf("live heap per warmed streamer: %.1f KiB", perKB)
	if perKB > budgetKB {
		t.Errorf("live heap per warmed streamer %.1f KiB, budget %.1f KiB", perKB, budgetKB)
	}
}

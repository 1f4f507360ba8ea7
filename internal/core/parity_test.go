package core

import (
	"math"
	"testing"

	"repro/internal/hemo"
	"repro/internal/physio"
)

// streamBeats feeds an acquisition through the incremental streamer in
// fixed-size chunks and returns every emitted beat.
func streamBeats(st *Streamer, acq *Acquisition, chunk int) []hemo.BeatParams {
	var out []hemo.BeatParams
	for pos := 0; pos < len(acq.ECG); pos += chunk {
		end := pos + chunk
		if end > len(acq.ECG) {
			end = len(acq.ECG)
		}
		out = append(out, st.Push(acq.ECG[pos:end], acq.Z[pos:end])...)
	}
	return append(out, st.Flush()...)
}

// The incremental engine must reproduce the batch pipeline beat for
// beat: same beat count and per-beat LVET/PEP/HR within tolerance, for
// every chunk size including 1-sample pushes. Outlier rejection is
// disabled in the batch run because it is a whole-series operation the
// per-beat stream cannot (and should not) apply.
func TestStreamingBatchParity(t *testing.T) {
	const (
		tolSTI = 0.008 // s: two samples at 250 Hz
		tolHR  = 1.0   // bpm
	)
	chunks := []int{1, 7, 50, 250, 1024}
	for sid := 1; sid <= 5; sid++ {
		sub, _ := physio.SubjectByID(sid)
		d := device(t, func(c *Config) { c.OutlierK = 1e9 })
		acq, err := d.Acquire(&sub, 30)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := d.Process(acq)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Beats) < 20 {
			t.Fatalf("subject %d: batch produced only %d beats", sid, len(batch.Beats))
		}
		for _, chunk := range chunks {
			st := d.NewStreamer(DefaultStreamConfig())
			got := streamBeats(st, acq, chunk)
			if len(got) != len(batch.Beats) {
				t.Fatalf("subject %d chunk %d: %d beats, batch %d",
					sid, chunk, len(got), len(batch.Beats))
			}
			for i, b := range got {
				want := batch.Beats[i]
				if math.Abs(b.TimeS-want.TimeS) > tolSTI {
					t.Errorf("subject %d chunk %d beat %d: TimeS %.3f vs %.3f",
						sid, chunk, i, b.TimeS, want.TimeS)
				}
				if math.Abs(b.LVET-want.LVET) > tolSTI {
					t.Errorf("subject %d chunk %d beat %d: LVET %.4f vs %.4f",
						sid, chunk, i, b.LVET, want.LVET)
				}
				if math.Abs(b.PEP-want.PEP) > tolSTI {
					t.Errorf("subject %d chunk %d beat %d: PEP %.4f vs %.4f",
						sid, chunk, i, b.PEP, want.PEP)
				}
				if math.Abs(b.HR-want.HR) > tolHR {
					t.Errorf("subject %d chunk %d beat %d: HR %.2f vs %.2f",
						sid, chunk, i, b.HR, want.HR)
				}
			}
		}
	}
}

// The emitted stream must be identical regardless of how the input is
// chunked — bit for bit, every field — because session replication and
// the multi-session engine rely on chunk-invariant output.
func TestStreamingChunkInvariance(t *testing.T) {
	sub, _ := physio.SubjectByID(2)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 20)
	if err != nil {
		t.Fatal(err)
	}
	ref := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq, 250)
	if len(ref) == 0 {
		t.Fatal("no beats")
	}
	for _, chunk := range []int{1, 3, 77, 999} {
		got := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq, chunk)
		if len(got) != len(ref) {
			t.Fatalf("chunk %d: %d beats vs %d", chunk, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("chunk %d beat %d differs: %+v vs %+v", chunk, i, got[i], ref[i])
			}
		}
	}
}

// A Reset streamer must reproduce a fresh streamer's output exactly —
// the session engine pools and reuses streamers across sessions.
func TestStreamerResetReuse(t *testing.T) {
	sub, _ := physio.SubjectByID(3)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 15)
	if err != nil {
		t.Fatal(err)
	}
	st := d.NewStreamer(DefaultStreamConfig())
	first := streamBeats(st, acq, 125)
	st.Reset()
	second := streamBeats(st, acq, 125)
	if len(first) != len(second) {
		t.Fatalf("Reset changes beat count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("beat %d differs after Reset", i)
		}
	}
}

// The causal-filter ablation conditions its stream sample for sample
// like the batch causal path, so parity must hold there too.
func TestStreamingBatchParityCausalFilters(t *testing.T) {
	sub, _ := physio.SubjectByID(1)
	d := device(t, func(c *Config) {
		c.CausalFilters = true
		c.OutlierK = 1e9
	})
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Process(acq)
	if err != nil {
		t.Fatal(err)
	}
	got := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq, 125)
	if len(got) != len(batch.Beats) {
		t.Fatalf("%d beats, batch %d", len(got), len(batch.Beats))
	}
	for i, b := range got {
		want := batch.Beats[i]
		if math.Abs(b.LVET-want.LVET) > 0.008 || math.Abs(b.PEP-want.PEP) > 0.008 {
			t.Errorf("beat %d: LVET %.4f/%.4f PEP %.4f/%.4f",
				i, b.LVET, want.LVET, b.PEP, want.PEP)
		}
	}
}

// The retained window-recompute engine must still work (it is the
// benchmark baseline) and stay in rough agreement with the batch means.
func TestWindowStreamerStillWorks(t *testing.T) {
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Process(acq)
	if err != nil {
		t.Fatal(err)
	}
	st := d.NewWindowStreamer(DefaultStreamConfig())
	var beats []hemo.BeatParams
	for pos := 0; pos < len(acq.ECG); pos += 250 {
		end := pos + 250
		if end > len(acq.ECG) {
			end = len(acq.ECG)
		}
		beats = append(beats, st.Push(acq.ECG[pos:end], acq.Z[pos:end])...)
	}
	beats = append(beats, st.Flush()...)
	if len(beats) == 0 {
		t.Fatal("no beats from window streamer")
	}
	var hr float64
	for _, b := range beats {
		hr += b.HR
	}
	hr /= float64(len(beats))
	if math.Abs(hr-batch.Summary.HR.Mean) > 3 {
		t.Errorf("window streamer HR %.1f vs batch %.1f", hr, batch.Summary.HR.Mean)
	}
	if l := st.Latency(); l <= 0 || l > 5 {
		t.Errorf("window streamer latency %g", l)
	}
}

// Big pushes obey the chunk-invariance law too: a push of any size is
// worked one sub-chunk at a time, so the history rings, sized for their
// readers' horizons, are never overrun. Whole 60 s recordings and
// multi-second chunks must emit exactly the beats, health and accept
// counts of 50-sample chunking.
func TestStreamingBigPushInvariance(t *testing.T) {
	d := device(t, nil)
	for sid := 1; sid <= 3; sid++ {
		sub, _ := physio.SubjectByID(sid)
		acq, err := d.Acquire(&sub, 60)
		if err != nil {
			t.Fatal(err)
		}
		run := func(chunk int) ([]hemo.BeatParams, StreamHealth, int) {
			st := d.NewStreamer(DefaultStreamConfig())
			beats := streamBeats(st, acq, chunk)
			acc, _ := st.AcceptCounts()
			return beats, st.Health(), acc
		}
		ref, refHealth, refAcc := run(50)
		if len(ref) < 40 {
			t.Fatalf("subject %d: only %d beats at chunk 50", sid, len(ref))
		}
		for _, chunk := range []int{1900, 2500, 5000, len(acq.ECG)} {
			got, health, acc := run(chunk)
			if len(got) != len(ref) {
				t.Fatalf("subject %d chunk %d: %d beats, chunk 50 emits %d", sid, chunk, len(got), len(ref))
			}
			changed := 0
			for i := range ref {
				if got[i] != ref[i] {
					changed++
				}
			}
			if changed > 0 {
				t.Errorf("subject %d chunk %d: %d of %d beats differ from chunk 50", sid, chunk, changed, len(ref))
			}
			if health != refHealth || acc != refAcc {
				t.Errorf("subject %d chunk %d: health %+v accepted %d, chunk 50 %+v accepted %d",
					sid, chunk, health, acc, refHealth, refAcc)
			}
		}
	}
}

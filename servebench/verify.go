package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/wal"
)

// refStream is the reference outcome for one distinct session input.
type refStream struct {
	hash   uint64
	events int
	beats  int
}

// reference replays every distinct session input of the plan through
// gateway.ReplayChunks into an in-process engine configured like the
// server: the exact chunk framing, the exact samples. The session's
// event stream is a pure function of its input (the determinism law),
// so a session driven over TCP must hash identically. It runs outside
// the timed region, two inputs at a time.
func reference(dev *core.Device, p *plan) (map[int]refStream, error) {
	first := map[int]int{} // input key -> first session with it
	var order []int
	for i, in := range p.inputs {
		if _, ok := first[in.key()]; !ok {
			first[in.key()] = i
			order = append(order, i)
		}
	}
	eng := session.NewEngine(dev, session.Config{})
	out := make([]refStream, len(order))
	errs := make([]error, len(order))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for j, i := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[j] = replayOne(eng, uint64(j+1), p, i, &out[j])
		}()
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	refs := make(map[int]refStream, len(order))
	for j, i := range order {
		if errs[j] != nil {
			return nil, fmt.Errorf("reference for session %d: %w", i, errs[j])
		}
		refs[p.inputs[i].key()] = out[j]
	}
	return refs, nil
}

func replayOne(eng *session.Engine, id uint64, p *plan, i int, out *refStream) error {
	var buf []byte
	s, err := eng.Subscribe(id, event.Func(func(e event.Event) {
		out.hash, buf = fold(out.hash, &e, buf)
		out.events++
		if e.Kind == event.KindBeat {
			out.beats++
		}
	}))
	if err != nil {
		return err
	}
	ecg, z := p.samples(i)
	if err := gateway.ReplayChunks(s, ecg, z, p.chunk); err != nil {
		s.Close()
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	<-s.Done()
	return nil
}

// walHashes folds the events a recovered log replays, per session, for
// session IDs 1..n.
func walHashes(dir string, n int) (hashes []uint64, recover time.Duration, err error) {
	t0 := time.Now()
	l, err := wal.Open(dir, wal.Config{})
	if err != nil {
		return nil, 0, fmt.Errorf("recover wal: %w", err)
	}
	hashes = make([]uint64, n)
	var buf []byte
	var stray int
	err = l.ReplayAll(func(e event.Event) {
		idx := e.Session - 1
		if idx >= uint64(n) {
			stray++
			return
		}
		hashes[idx], buf = fold(hashes[idx], &e, buf)
	})
	recover = time.Since(t0)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err == nil && stray > 0 {
		err = fmt.Errorf("wal replayed %d events of unknown sessions", stray)
	}
	return hashes, recover, err
}

// outcome is the correctness verdict of one driven fleet.
type outcome struct {
	attempted, failed int
	expectedBeats     int
	reasons           []string // first few failures, for the report
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.reasons) < 5 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

// merge adds another fleet's verdict to o.
func (o *outcome) merge(x outcome) {
	o.attempted += x.attempted
	o.failed += x.failed
	o.expectedBeats += x.expectedBeats
	o.reasons = append(o.reasons, x.reasons...)
}

// check compares every session's received stream with the reference
// (and, when walHash is non-nil, with what the recovered log replays).
// A session fails on an incomplete stream, a push or protocol error,
// or any hash mismatch.
func check(r *fleetRun, refs map[int]refStream, walHash []uint64) outcome {
	o := outcome{attempted: r.p.sessions}
	for i := range r.tallies {
		t := &r.tallies[i]
		ref := refs[r.p.inputs[i].key()]
		o.expectedBeats += ref.beats
		switch {
		case r.pushErr[i] != nil:
			o.fail("session %d: %v", i, r.pushErr[i])
		case !t.closed:
			o.fail("session %d: no KindSessionClosed (%d events)", i, t.events)
		case t.hash != ref.hash || t.events != ref.events:
			o.fail("session %d: %d events hash %016x, reference %d events hash %016x", i, t.events, t.hash, ref.events, ref.hash)
		case walHash != nil && walHash[i] != t.hash:
			o.fail("session %d: wal replay hash %016x != received %016x", i, walHash[i], t.hash)
		}
	}
	if n := r.stray.Load(); n > 0 {
		o.fail("%d events for sessions never opened", n)
	}
	return o
}

// latencies returns each beat an open-loop fleet received, in ms:
// arrival minus the due time of the chunk that completes it. A beat
// whose completing sample lies past the input is due at Close.
func latencies(r *fleetRun, latencyS float64) []float64 {
	var out []float64
	for _, bs := range r.beats {
		for _, b := range bs {
			due := r.closeAt[b.idx]
			if k := completingChunk(b.timeS, latencyS, r.p.chunk); k < r.p.chunks {
				due = r.due(b.idx, k)
			}
			out = append(out, float64(b.at-due)/float64(time.Millisecond))
		}
	}
	return out
}

// completingChunk returns the index of the chunk holding sample
// ceil((timeS+L)*fs), the one whose arrival lets the Streamer emit a
// beat at timeS; L is Streamer.Latency(). The product lands on whole
// samples up to float error, which the rounding forgives.
func completingChunk(timeS, latencyS float64, chunk int) int {
	j := int(math.Ceil((timeS+latencyS)*fs - 1e-6))
	return max(j-1, 0) / chunk
}

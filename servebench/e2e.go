package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// setupReps is how many times a run sets up. One set-up's time spreads
// too widely between runs on a shared machine (see README.md).
const setupReps = 5

// lateLimit is the beat-latency limit of late_frac: one 50-sample
// chunk period at 250 Hz.
const lateLimit = 200 * time.Millisecond

// streamLatency is Streamer.Latency() of the served device.
func streamLatency(dev *core.Device) float64 {
	return dev.NewStreamer(core.StreamConfig{}).Latency()
}

// driveTimeout bounds the wait for the last KindSessionClosed.
func driveTimeout(seconds float64) time.Duration {
	return 60*time.Second + time.Duration(3*seconds*float64(time.Second))
}

// setUp starts a server, synthesizes the inputs, dials and opens every
// session. It returns the live run and how long that took.
func setUp(p *plan, dev *core.Device, cfg serverConfig) (*serverProc, *fleetRun, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*serverProc, *fleetRun, time.Duration, error) {
		srv.kill()
		return nil, nil, 0, err
	}
	if err := p.synthesize(dev); err != nil {
		return fail(err)
	}
	fr := newFleetRun(p, 0, false)
	fr.epoch = t0
	if err := fr.dial(srv.addr, runtime.NumCPU()); err != nil {
		return fail(err)
	}
	if err := fr.openAll(); err != nil {
		fr.closeClients()
		return fail(err)
	}
	return srv, fr, time.Since(t0), nil
}

// runE2E is the untraced run: set up, drive the workload, verify every
// session, and report the end-to-end metrics. A closed-loop workload
// splits --seconds into two phases on one server: a third for the
// closed loop, which gives throughput, CPU and heap, then two thirds for
// an open loop over the same sessions and chunking, which gives beat
// latency. The open loop gets the larger share because a beat needs
// seconds of signal: a short phase has few beats per session, and a
// large share of them are the ones flushed at Close.
func runE2E(rep *report, opt options, s spec, dev *core.Device) (*result, error) {
	seconds := opt.seconds
	if !s.paced {
		seconds /= 3
	}
	sessions, chunks := fullSize(s, seconds, opt.scale)
	p := newPlan(s, opt.seed, sessions, chunks)
	fmt.Fprintf(rep.w, "plan sessions=%d chunk=%d chunks_per_session=%d paced=%t wal=%t\n",
		p.sessions, p.chunk, p.chunks, p.paced, p.wal)
	lp := p // the plan whose beats give the latency
	if !s.paced {
		ls := s.latencySpec()
		_, lchunks := fullSize(ls, opt.seconds-seconds, opt.scale)
		lp = newPlan(ls, opt.seed, sessions, lchunks)
		p.recLen = max(p.recLen, lp.recLen)
		fmt.Fprintf(rep.w, "latency plan sessions=%d chunk=%d chunks_per_session=%d period=%v\n",
			lp.sessions, lp.chunk, lp.chunks, lp.period)
	}

	cfg := serverConfig{}
	walDir := ""
	if s.wal {
		walDir = filepath.Join(opt.workDir, fmt.Sprintf("wal-%d", os.Getpid()))
		os.RemoveAll(walDir)
		cfg.WALDir = walDir
		defer os.RemoveAll(walDir)
	}
	// setup_s is the median of setupReps set-ups: each but the last is
	// torn down again, and the last is driven.
	var (
		srv    *serverProc
		fr     *fleetRun
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			fr.closeClients()
			if _, err := srv.quit(); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", i-1, err)
			}
			if walDir != "" {
				os.RemoveAll(walDir)
			}
		}
		var took time.Duration
		var err error
		if srv, fr, took, err = setUp(p, dev, cfg); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
	}
	if opt.withhold {
		fr.withhold = 0
	}

	m0, err := srv.mark()
	if err != nil {
		fr.closeClients()
		srv.kill()
		return nil, err
	}
	driveErr := fr.drive(driveTimeout(opt.seconds))
	m1, markErr := srv.mark()
	fr.closeClients()
	lr := fr
	if lp != p && driveErr == nil && markErr == nil {
		// The open-loop phase: new connections, session IDs after the
		// closed loop's, the same recordings.
		lp.recs = p.recs
		lr = newFleetRun(lp, uint64(p.sessions), false)
		lr.epoch = time.Now()
		if driveErr = lr.dial(srv.addr, runtime.NumCPU()); driveErr == nil {
			if driveErr = lr.openAll(); driveErr == nil {
				driveErr = lr.drive(driveTimeout(opt.seconds))
			}
		}
		lr.closeClients()
	}
	final, quitErr := srv.quit()
	if markErr != nil || quitErr != nil {
		return nil, fmt.Errorf("server: mark %v, quit %v", markErr, quitErr)
	}

	var walHash []uint64
	var recoverS float64
	if s.wal {
		h, d, err := walHashes(walDir, p.sessions)
		if err != nil {
			return nil, err
		}
		walHash, recoverS = h, d.Seconds()
	}
	refs, err := reference(dev, p)
	if err != nil {
		return nil, err
	}
	if opt.corruptRef {
		k := p.inputs[0].key()
		r := refs[k]
		r.hash ^= 1
		refs[k] = r
	}
	if opt.corruptWAL {
		walHash[0] ^= 1
	}
	o := check(fr, refs, walHash)
	lo := o // the latency phase's verdict, for late_frac
	if lr != fr {
		lrefs, err := reference(dev, lp)
		if err != nil {
			return nil, err
		}
		lo = check(lr, lrefs, nil)
		o.merge(lo)
	}
	if driveErr != nil {
		o.reasons = append(o.reasons, driveErr.Error())
	}
	for _, r := range []*fleetRun{fr, lr} {
		if err := r.connErr(); err != nil {
			o.fail("connection: %v", err)
		}
	}
	if final.EventsDropped > 0 || final.ProtocolErrs > 0 || final.WALDropped > 0 {
		o.fail("server dropped %d events, %d protocol errors, %d wal appends dropped",
			final.EventsDropped, final.ProtocolErrs, final.WALDropped)
	}

	pairs := float64(m1.SamplesIn - m0.SamplesIn)
	elapsed := time.Duration(fr.end.Load()) - fr.firstChunk
	if driveErr != nil || pairs == 0 || elapsed <= 0 {
		elapsed = fr.since() - fr.firstChunk
	}
	lat := latencies(lr, streamLatency(dev))
	late := max(0, lo.expectedBeats-len(lat))
	var sumMs float64
	for _, l := range lat {
		sumMs += l
		if l > float64(lateLimit)/float64(time.Millisecond) {
			late++
		}
	}
	cpu := float64(m1.CPUNs-m0.CPUNs) / 1e3 / max(pairs, 1)

	rep.add("setup_s", median(setups), "s")
	rep.add("throughput_pairs_per_s", pairs/elapsed.Seconds(), "pairs/s")
	rep.add("beat_latency_p50_ms", quantile(lat, 0.50), "ms")
	rep.add("beat_latency_p90_ms", quantile(lat, 0.90), "ms")
	rep.add("cpu_us_per_pair", cpu, "us/pair")
	rep.add("heap_per_session_kb", float64(m1.HeapPeak)/float64(p.sessions)/1024, "KiB")
	rep.note("setup_first_s", setups[0], "s")
	rep.note("beat_latency_p99_ms", quantile(lat, 0.99), "ms")
	rep.note("beat_latency_p999_ms", quantile(lat, 0.999), "ms")
	rep.note("beat_latency_samples", float64(len(lat)), "count")
	rep.note("late_frac", float64(late)/float64(max(lo.expectedBeats, 1)), "ratio")
	rep.note("fail_frac", float64(o.failed)/float64(o.attempted), "ratio")
	if s.wal {
		rep.note("recover_s", recoverS, "s")
	}
	noteLag(rep, lr)
	rep.note("gateway.events_dropped", float64(final.EventsDropped), "count")
	rep.note("pairs_ingested", pairs, "count")
	rep.note("server.gc_cycles", float64(m1.GCCycles-m0.GCCycles), "count")
	rep.note("drive_s", elapsed.Seconds(), "s")
	for _, r := range o.reasons {
		fmt.Fprintln(rep.w, "FAIL", r)
	}
	return &result{Correct: o.failed == 0 && driveErr == nil, Attempted: o.attempted, Failed: o.failed}, nil
}

// noteLag prints gen.lag_p99_ms: how late the paced generator pushed
// behind each chunk's due time, at p99. A closed loop has no schedule.
func noteLag(rep *report, r *fleetRun) {
	if !r.p.paced {
		fmt.Fprintf(rep.w, "%-34s %14s\n", "gen.lag_p99_ms", "none (closed loop)")
		return
	}
	var xs []float64
	for _, lag := range r.lag {
		for _, d := range lag {
			xs = append(xs, float64(d)/float64(time.Millisecond))
		}
	}
	rep.note("gen.lag_p99_ms", quantile(xs, 0.99), "ms")
}

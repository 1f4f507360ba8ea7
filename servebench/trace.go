package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hw/radio"
	"repro/internal/session"
	"repro/internal/wal"
)

// runTraced is the traced run. It drives a subset of the workload
// (its first sessions, each with its first chunks) twice through a
// one-worker, one-core gateway process: untraced, which gives
// e2e.single_worker_ns_per_pair, then with spans and counters on the
// client layer. It then replays the traced phase's captured wire bytes
// in-process, one core, through each layer's public entry points —
// radio scanning, the gateway read loop, Session.PushOwned, the
// Streamer, a stage-by-stage replica of it, and the WAL — and prints
// the per-layer table. Rows are self times: a layer's span minus the
// spans of the layers it calls.
func runTraced(rep *report, opt options, s spec, dev *core.Device) (*result, error) {
	sessions, chunks := traceSize(s, opt.seconds, opt.scale)
	p := newPlan(s, opt.seed, sessions, chunks)
	fmt.Fprintf(rep.w, "plan sessions=%d chunk=%d chunks_per_session=%d paced=%t wal=%t workers=1 gomaxprocs=1\n",
		p.sessions, p.chunk, p.chunks, p.paced, p.wal)
	cfg := serverConfig{SingleCore: true}
	var walDirs []string
	defer func() {
		for _, d := range walDirs {
			os.RemoveAll(d)
		}
	}()
	newWALDir := func(tag string) string {
		d := filepath.Join(opt.workDir, fmt.Sprintf("%s-%d", tag, os.Getpid()))
		os.RemoveAll(d)
		walDirs = append(walDirs, d)
		return d
	}
	if s.wal {
		cfg.WALDir = newWALDir("trace-wal")
	}

	// Phase U (untraced) and phase T (traced), on one server; phase T's
	// session IDs follow phase U's.
	srv, u, _, err := setUp(p, dev, cfg)
	if err != nil {
		return nil, err
	}
	// phase drives one fleet and returns the client process's CPU and
	// the server's counters around the drive.
	phase := func(fr *fleetRun) (cpu int64, m0, m1 serverReport, err error) {
		defer fr.closeClients()
		if m0, err = srv.mark(); err != nil {
			return
		}
		c0 := processCPU()
		err = fr.drive(driveTimeout(opt.seconds))
		cpu = processCPU() - c0
		var merr error
		if m1, merr = srv.mark(); err == nil {
			err = merr
		}
		return
	}
	cpuU, u0, u1, errU := phase(u)
	tr := newFleetRun(p, uint64(p.sessions), true)
	tr.epoch = time.Now()
	errT := tr.dial(srv.addr, runtime.NumCPU())
	if errT == nil {
		errT = tr.openAll()
	}
	var cpuT int64
	var t0, t1 serverReport
	var w0, w1 wireCount
	if errT == nil {
		w0 = wireOf(tr)
		cpuT, t0, t1, errT = phase(tr)
		w1 = wireOf(tr)
	} else {
		tr.closeClients()
	}
	final, quitErr := srv.quit()
	if errU != nil || errT != nil || quitErr != nil {
		return nil, fmt.Errorf("traced run: untraced phase %v, traced phase %v, server %v", errU, errT, quitErr)
	}

	refs, err := reference(dev, p)
	if err != nil {
		return nil, err
	}
	var walU, walT []uint64
	if s.wal {
		both, _, err := walHashes(cfg.WALDir, 2*p.sessions)
		if err != nil {
			return nil, err
		}
		walU, walT = both[:p.sessions], both[p.sessions:]
	}
	o := check(u, refs, walU)
	o.merge(check(tr, refs, walT))
	if final.EventsDropped > 0 || final.ProtocolErrs > 0 || final.WALDropped > 0 {
		o.fail("server dropped %d events, %d protocol errors, %d wal appends dropped",
			final.EventsDropped, final.ProtocolErrs, final.WALDropped)
	}

	// The in-process layer passes, on one core like the server above.
	prev := runtime.GOMAXPROCS(1)
	lt, err := measureLayers(dev, p, tr, refs, newWALDir)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	o.failed += lt.failed
	o.reasons = append(o.reasons, lt.reasons...)

	pairsU := float64(u1.SamplesIn - u0.SamplesIn)
	pairsT := float64(t1.SamplesIn - t0.SamplesIn)
	framesT := float64(t1.FramesIn - t0.FramesIn)
	P := float64(lt.pairs)
	e2e := float64(u1.CPUNs-u0.CPUNs) / max(pairsU, 1)
	sum := lt.sumNs() / P

	rep.add("client.push_ns_per_frame", float64(sumInt64(tr.pushNs))/max(framesT, 1), "ns/frame")
	rep.add("client.writes_per_frame", float64(w1.writes-w0.writes)/max(framesT, 1), "count")
	rep.add("client.wire_bytes_per_pair", float64(w1.bytes-w0.bytes)/max(pairsT, 1), "count")
	rep.add("radio.scan_ns_per_frame", lt.scanNs/float64(lt.frames), "ns/frame")
	rep.add("gateway.ingest_ns_per_frame", lt.gatewaySelf()/float64(lt.chunkFrames), "ns/frame")
	rep.add("gateway.events_dropped", float64(final.EventsDropped), "count")
	rep.add("session.push_owned_ns_per_chunk", lt.pushOwnedNs, "ns/chunk")
	rep.add("session.queue_ms_p50", quantile(lt.queueMs, 0.50), "ms")
	rep.add("session.queue_ms_p99", quantile(lt.queueMs, 0.99), "ms")
	rep.add("core.streamer_ns_per_pair", lt.coreNs/P, "ns/pair")
	if lt.replicaOK {
		for st := 0; st < nStages; st++ {
			div, unit := P, "ns/pair"
			if st >= stDelin {
				div, unit = float64(max(lt.beatAttempts, 1)), "ns/beat"
			}
			rep.add(stageRows[st], lt.stageNs[st]/div, unit)
		}
		rep.add("core.residual_ns_per_pair", (lt.coreNs-sumF(lt.stageNs[:]))/P, "ns/pair")
	} else {
		fmt.Fprintln(rep.w, "stage rows withheld: the stage replica diverged from core.Streamer")
	}
	rep.add("quality.accept_frac", float64(lt.accepted)/float64(max(lt.beats, 1)), "ratio")
	rep.add("wal.append_ns_per_event", lt.walAppendNs/float64(max(lt.walEvents, 1)), "ns/event")
	rep.add("wal.sync_ms_p50", quantile(lt.walSyncMs, 0.50), "ms")
	rep.add("wal.sync_ms_p99", quantile(lt.walSyncMs, 0.99), "ms")
	rep.add("wal.bytes_per_event", float64(lt.walBytes)/float64(max(lt.walEvents, 1)), "count")
	rep.add("wal.scan_ms_per_mb", lt.walScanMs/(float64(lt.walBytes)/1e6), "ms/MB")
	rep.add("wal.replay_ns_per_event", lt.walReplayNs/float64(max(lt.walEvents, 1)), "ns/event")
	rep.add("layers.sum_ns_per_pair", sum, "ns/pair")
	rep.add("e2e.single_worker_ns_per_pair", e2e, "ns/pair")
	rep.add("layers.residual_ns_per_pair", e2e-sum, "ns/pair")
	rep.add("trace.overhead_frac", float64(cpuT)/max(pairsT, 1)/(float64(cpuU)/max(pairsU, 1))-1, "ratio")
	rep.note("fail_frac", float64(o.failed)/float64(o.attempted), "ratio")
	rep.note("trace.span_cost_ns", lt.spanCost, "ns")
	rep.note("pairs_replayed", P, "count")
	noteLag(rep, u)
	for _, r := range o.reasons {
		fmt.Fprintln(rep.w, "FAIL", r)
	}
	return &result{Correct: o.failed == 0 && lt.replicaOK, Attempted: o.attempted, Failed: o.failed}, nil
}

type wireCount struct{ writes, bytes int64 }

// wireOf sums the traced connections' write counters.
func wireOf(r *fleetRun) wireCount {
	var w wireCount
	for _, nc := range r.conns {
		c := nc.(*countingConn)
		c.mu.Lock()
		w.writes += c.writes
		w.bytes += c.bytes
		c.mu.Unlock()
	}
	return w
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumF(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// op is one step of the replayed wire stream: a chunk frame's samples
// for a session, or the session's close.
type op struct {
	idx   int
	lo, n int // sample range within the session's input
	close bool
}

// layerTimes is the outcome of the in-process passes. Times are in ns,
// with the calibrated cost of the spans themselves taken out.
type layerTimes struct {
	pairs               int
	frames, chunkFrames int
	spanCost            float64
	scanNs              float64
	gatewayNs           float64 // the whole in-process gateway pass
	engineNs            float64 // PushOwned pass: session + core
	coreNs              float64 // Streamer pass
	stageNs             [nStages]float64
	replicaOK           bool
	beats, beatAttempts int
	accepted            int
	pushOwnedNs         float64
	queueMs             []float64
	walInSum            bool // the WAL is a layer of this workload's server
	walAppendNs         float64
	walSyncNs           float64
	walSyncMs           []float64
	walEvents           int
	walBytes            int64
	walScanMs           float64
	walReplayNs         float64
	failed              int
	reasons             []string
}

// walNs is the WAL layer's time in the serving path.
func (l *layerTimes) walNs() float64 {
	if !l.walInSum {
		return 0
	}
	return l.walAppendNs + l.walSyncNs
}

// gatewaySelf is the gateway read loop's self time: the in-process
// gateway pass minus the layers it calls.
func (l *layerTimes) gatewaySelf() float64 {
	return l.gatewayNs - l.scanNs - l.engineNs - l.walNs()
}

// sumNs adds the rows: radio, gateway self, session self (engine pass
// minus Streamer), core and, where armed, the WAL. The self-time rows
// telescope, so the sum is the in-process gateway pass itself, and its
// residual against the real one-worker server is what sockets, netpoll
// and scheduling add there.
func (l *layerTimes) sumNs() float64 {
	return l.scanNs + l.gatewaySelf() + (l.engineNs - l.coreNs) + l.coreNs + l.walNs()
}

// spanCost measures what an empty span (two clock reads) costs.
func spanCost() float64 {
	const n = 200000
	var acc time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		acc += time.Since(t)
	}
	return float64(acc) / n
}

// measureLayers runs the in-process passes over the traced phase's
// captured wire bytes.
func measureLayers(dev *core.Device, p *plan, tr *fleetRun, refs map[int]refStream, walDir func(string) string) (*layerTimes, error) {
	lt := &layerTimes{spanCost: spanCost(), walInSum: p.wal}
	captures := make([][]byte, len(tr.conns))
	for i, nc := range tr.conns {
		captures[i] = nc.(*countingConn).capture
	}
	ops, err := wireOps(tr, captures, lt)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	lt.scanNs = scanPass(captures)

	runtime.GC()
	gwDir := ""
	if p.wal {
		gwDir = walDir("trace-gw-wal")
	}
	if lt.gatewayNs, err = gatewayPass(dev, captures, gwDir); err != nil {
		return nil, err
	}

	runtime.GC()
	if err := enginePass(dev, p, ops, refs, lt); err != nil {
		return nil, err
	}

	runtime.GC()
	events := streamerPass(dev, p, ops, lt)

	runtime.GC()
	if err := replicaPass(dev, p, ops, events, lt); err != nil {
		return nil, err
	}

	runtime.GC()
	if err := walPass(events, walDir("trace-layer-wal"), lt); err != nil {
		return nil, err
	}
	return lt, nil
}

// wireOps decodes the captured client bytes into the sequence of
// chunk frames and closes the server received, interleaving the
// connections frame by frame. It reads the chunk payload's sample
// count from the documented wire format ([stream:2][n:1]...).
func wireOps(tr *fleetRun, captures [][]byte, lt *layerTimes) ([]op, error) {
	per := make([][]op, len(captures))
	next := make([]int, tr.p.sessions)
	for ci, b := range captures {
		sc := radio.NewScannerLimit(bytes.NewReader(b), radio.MaxPayloadExt)
		for {
			f, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("captured wire: %w", err)
			}
			lt.frames++
			if f.Type != gateway.TypeChunk && f.Type != gateway.TypeCloseStream {
				continue
			}
			stream := int(f.Payload[0])<<8 | int(f.Payload[1])
			idx := tr.lanes[ci][stream-1].idx
			if f.Type == gateway.TypeCloseStream {
				per[ci] = append(per[ci], op{idx: idx, close: true})
				continue
			}
			n := int(f.Payload[2])
			per[ci] = append(per[ci], op{idx: idx, lo: next[idx], n: n})
			next[idx] += n
			lt.chunkFrames++
			lt.pairs += n
		}
	}
	var ops []op
	for i := 0; ; i++ {
		more := false
		for ci := range per {
			if i < len(per[ci]) {
				ops = append(ops, per[ci][i])
				more = true
			}
		}
		if !more {
			return ops, nil
		}
	}
}

// scanPass times radio.Scanner over every captured byte (median of
// three passes).
func scanPass(captures [][]byte) float64 {
	var runs []float64
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		for _, b := range captures {
			sc := radio.NewScannerLimit(bytes.NewReader(b), radio.MaxPayloadExt)
			for {
				if _, err := sc.Next(); err != nil {
					break
				}
			}
		}
		runs = append(runs, float64(time.Since(t)))
	}
	return median(runs)
}

// gatewayPass serves the captured connections from memory through a
// one-worker gateway and times it until every connection has been
// torn down (every session flushed and closed).
func gatewayPass(dev *core.Device, captures [][]byte, walDir string) (float64, error) {
	scfg := session.Config{Workers: 1}
	var log *wal.Log
	if walDir != "" {
		var err error
		if log, err = wal.Open(walDir, wal.Config{}); err != nil {
			return 0, err
		}
		scfg.WAL = log
	}
	g := gateway.New(dev, gateway.Config{Session: scfg})
	conns := make([]*replayConn, len(captures))
	for i, b := range captures {
		conns[i] = newReplayConn(b)
	}
	ln := newReplayListener(conns)
	served := make(chan error, 1)
	t := time.Now()
	go func() { served <- g.Serve(ln) }()
	var err error
	for _, c := range conns {
		select {
		case <-c.done:
		case <-time.After(2 * time.Minute):
			err = errReplayIncomplete
		}
	}
	d := float64(time.Since(t))
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	if serr := <-served; err == nil {
		err = serr
	}
	if log != nil {
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	}
	if st := g.Stats(); err == nil && st.ProtocolErrs > 0 {
		err = fmt.Errorf("gateway replay: %d protocol errors", st.ProtocolErrs)
	}
	return d, err
}

// engineRun is one PushOwned pass over the replayed frames.
type engineRun struct {
	total   float64 // ns from the first push to the last close
	hashes  []uint64
	spans   []float64         // traced: each PushOwned call
	beats   [][]beatArrival   // traced: per session, as the timing sink saw them
	rets    [][]time.Duration // traced: when each chunk's PushOwned returned
	closeAt []time.Duration   // traced: when each session's Close was called
}

// runEngine pushes each chunk frame's samples through Session.PushOwned
// on a one-worker engine. Owned buffers are built before the clock
// starts. The traced pass adds a span around each call and a timing
// sink behind each session; the untraced pass only folds the events.
func runEngine(dev *core.Device, p *plan, ops []op, traced bool) (*engineRun, error) {
	owned := make([][]float64, len(ops))
	for i, o := range ops {
		if o.close {
			continue
		}
		e, z := p.samples(o.idx)
		b := make([]float64, 2*o.n)
		copy(b, e[o.lo:o.lo+o.n])
		copy(b[o.n:], z[o.lo:o.lo+o.n])
		owned[i] = b
	}
	r := &engineRun{
		hashes:  make([]uint64, p.sessions),
		beats:   make([][]beatArrival, p.sessions),
		rets:    make([][]time.Duration, p.sessions),
		closeAt: make([]time.Duration, p.sessions),
	}
	eng := session.NewEngine(dev, session.Config{Workers: 1})
	var epoch time.Time
	sess := make([]*session.Session, p.sessions)
	for i := range sess {
		var buf []byte
		s, err := eng.Subscribe(uint64(i+1), event.Func(func(e event.Event) {
			if traced && e.Kind == event.KindBeat {
				r.beats[i] = append(r.beats[i], beatArrival{idx: i, timeS: e.TimeS, at: time.Since(epoch)})
			}
			r.hashes[i], buf = fold(r.hashes[i], &e, buf)
		}))
		if err != nil {
			eng.Close()
			return nil, err
		}
		sess[i] = s
	}
	var pushErr error
	keep := func(err error) {
		if err != nil && pushErr == nil {
			pushErr = err
		}
	}
	epoch = time.Now()
	for i, o := range ops {
		s := sess[o.idx]
		switch {
		case o.close:
			if traced {
				r.closeAt[o.idx] = time.Since(epoch)
			}
			keep(s.Close())
		case !traced:
			keep(s.PushOwned(owned[i][:o.n:o.n], owned[i][o.n:]))
		default:
			t0 := time.Since(epoch)
			keep(s.PushOwned(owned[i][:o.n:o.n], owned[i][o.n:]))
			t1 := time.Since(epoch)
			r.spans = append(r.spans, float64(t1-t0))
			r.rets[o.idx] = append(r.rets[o.idx], t1)
		}
	}
	r.total = float64(time.Since(epoch))
	keep(eng.Close())
	if pushErr != nil {
		return nil, fmt.Errorf("engine pass: %w", pushErr)
	}
	return r, nil
}

// enginePass times the session layer: an untraced pass gives its total
// (session plus core), a traced pass the PushOwned spans and the
// queueing from each beat's completing chunk to the sink's Emit. Both
// passes must reproduce the reference streams.
func enginePass(dev *core.Device, p *plan, ops []op, refs map[int]refStream, lt *layerTimes) error {
	plain, err := runEngine(dev, p, ops, false)
	if err != nil {
		return err
	}
	runtime.GC()
	tr, err := runEngine(dev, p, ops, true)
	if err != nil {
		return err
	}
	lt.engineNs = plain.total
	lt.pushOwnedNs = median(tr.spans) - lt.spanCost
	latS := streamLatency(dev)
	for _, bs := range tr.beats {
		for _, b := range bs {
			due := tr.closeAt[b.idx]
			if k := completingChunk(b.timeS, latS, p.chunk); k < len(tr.rets[b.idx]) {
				due = tr.rets[b.idx][k]
			}
			lt.queueMs = append(lt.queueMs, float64(b.at-due)/float64(time.Millisecond))
		}
	}
	for _, run := range []*engineRun{plain, tr} {
		for i, h := range run.hashes {
			if ref := refs[p.inputs[i].key()]; h != ref.hash {
				lt.failed++
				lt.reasons = append(lt.reasons, fmt.Sprintf("engine pass session %d: hash %016x != reference %016x", i, h, ref.hash))
			}
		}
	}
	return nil
}

// sessionEvent is an event tagged with its session index.
type sessionEvent struct {
	idx int
	e   event.Event
}

// streamerPass pushes each chunk frame through one core.Streamer per
// session and returns the events in emission order.
func streamerPass(dev *core.Device, p *plan, ops []op, lt *layerTimes) []sessionEvent {
	var events []sessionEvent
	sts := make([]*core.Streamer, p.sessions)
	for i := range sts {
		sts[i] = dev.NewStreamer(core.StreamConfig{})
		sts[i].Emit(event.Func(func(e event.Event) { events = append(events, sessionEvent{i, e}) }), 0)
	}
	t := time.Now()
	for _, o := range ops {
		if o.close {
			sts[o.idx].Flush()
			continue
		}
		e, z := p.samples(o.idx)
		sts[o.idx].Push(e[o.lo:o.lo+o.n], z[o.lo:o.lo+o.n])
	}
	lt.coreNs = float64(time.Since(t))
	for _, se := range events {
		if se.e.Kind == event.KindBeat {
			lt.beats++
			if se.e.Params.Accepted {
				lt.accepted++
			}
		}
	}
	return events
}

// replicaPass runs the stage replica over the same frames and checks
// that it emits exactly the Streamer's events; otherwise its stage
// rows would describe a different program and are withheld.
func replicaPass(dev *core.Device, p *plan, ops []op, want []sessionEvent, lt *layerTimes) error {
	d, err := newReplicaDesign(dev)
	if err != nil {
		return err
	}
	var clk stageClock
	got := make([][]event.Event, p.sessions)
	reps := make([]*replica, p.sessions)
	for i := range reps {
		if reps[i], err = d.newReplica(&clk, func(e event.Event) { got[i] = append(got[i], e) }); err != nil {
			return err
		}
	}
	for _, o := range ops {
		if o.close {
			reps[o.idx].Flush()
			continue
		}
		e, z := p.samples(o.idx)
		reps[o.idx].Push(e[o.lo:o.lo+o.n], z[o.lo:o.lo+o.n])
	}
	for st := range lt.stageNs {
		lt.stageNs[st] = float64(clk.ns[st]) - lt.spanCost*float64(clk.spans[st])
	}
	for _, r := range reps {
		lt.beatAttempts += r.nBeats
	}
	// Compare per session, byte for byte in the canonical encoding.
	wantBy := make([][]event.Event, p.sessions)
	for _, se := range want {
		wantBy[se.idx] = append(wantBy[se.idx], se.e)
	}
	lt.replicaOK = true
	var a, b []byte
	for i := range wantBy {
		if len(wantBy[i]) != len(got[i]) {
			lt.replicaOK = false
			break
		}
		for k := range got[i] {
			a = wal.EncodeEvent(a[:0], &wantBy[i][k])
			b = wal.EncodeEvent(b[:0], &got[i][k])
			if !bytes.Equal(a, b) {
				lt.replicaOK = false
			}
		}
	}
	if !lt.replicaOK {
		lt.reasons = append(lt.reasons, "stage replica events differ from core.Streamer")
	}
	return nil
}

// walPass appends the Streamer pass's events to a fresh log with the
// serving defaults (1 MiB segments, an fsync every 64 records — issued
// here as explicit Sync calls so that append and fsync are timed
// apart), then times the recovery scan (wal.Open) and ReplayAll.
func walPass(events []sessionEvent, dir string, lt *layerTimes) error {
	const syncEvery = 64
	l, err := wal.Open(dir, wal.Config{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	var appendNs float64
	for i, se := range events {
		e := se.e
		e.Session = uint64(se.idx + 1)
		t := time.Now()
		l.AppendEvent(e)
		appendNs += float64(time.Since(t)) - lt.spanCost
		if (i+1)%syncEvery == 0 {
			t = time.Now()
			err := l.Sync()
			d := float64(time.Since(t)) - lt.spanCost
			if err != nil {
				l.Close()
				return err
			}
			lt.walSyncNs += d
			lt.walSyncMs = append(lt.walSyncMs, d/1e6)
		}
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	lt.walAppendNs = appendNs
	lt.walEvents = len(events)
	lt.walBytes = l.Stats().RetainedBytes
	if err := l.Close(); err != nil {
		return err
	}
	t := time.Now()
	l, err = wal.Open(dir, wal.Config{})
	if err != nil {
		return err
	}
	lt.walScanMs = float64(time.Since(t)) / 1e6
	n := 0
	t = time.Now()
	err = l.ReplayAll(func(event.Event) { n++ })
	lt.walReplayNs = float64(time.Since(t))
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != len(events) {
		err = fmt.Errorf("wal pass: replayed %d of %d events", n, len(events))
	}
	return err
}

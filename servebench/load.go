package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/wal"
)

// eventDepth sizes each client's Events channel: one consumer drains
// it per connection, so it only has to absorb scheduling hiccups.
const eventDepth = 4096

// lane is one session stream on a client connection.
type lane struct {
	idx int // session index in the plan
	cs  *gateway.ClientStream
}

// tally is one session's received event stream, folded as it arrives.
// Only the consumer of the session's connection writes it.
type tally struct {
	hash   uint64
	events int
	beats  int
	closed bool
}

// beatArrival is one KindBeat as the client saw it.
type beatArrival struct {
	idx   int
	timeS float64
	at    time.Duration // since the run's epoch
}

// fleetRun is the load generator: at most nproc connections, one
// sender goroutine per connection round-robining its sessions' chunks,
// and one consumer per connection folding the events that come back.
type fleetRun struct {
	p      *plan
	idBase uint64
	epoch  time.Time
	traced bool // wrap the client layer in spans and counters
	// withhold, when >= 0, is a session whose middle chunk the sender
	// skips: a fault injected to prove the correctness check bites.
	withhold int

	conns   []net.Conn
	clients []*gateway.Client
	lanes   [][]lane

	tallies []tally
	pushErr []error         // per session, written by its sender
	closeAt []time.Duration // when each session's Close was sent
	beats   [][]beatArrival // per connection consumer
	stray   atomic.Int64    // events for sessions this run never opened

	remaining  atomic.Int64
	allClosed  chan struct{}
	end        atomic.Int64 // ns since epoch of the last KindSessionClosed
	firstChunk time.Duration

	lag       [][]time.Duration // paced: how late each push ran behind its due time, per sender
	pushNs    []int64           // traced: Push span totals per sender
	consumers sync.WaitGroup
}

func newFleetRun(p *plan, idBase uint64, traced bool) *fleetRun {
	n := p.sessions
	r := &fleetRun{
		p: p, idBase: idBase, traced: traced, withhold: -1,
		tallies:   make([]tally, n),
		pushErr:   make([]error, n),
		closeAt:   make([]time.Duration, n),
		allClosed: make(chan struct{}),
	}
	r.remaining.Store(int64(n))
	return r
}

func (r *fleetRun) since() time.Duration { return time.Since(r.epoch) }

// dial opens nconn client connections; traced runs wrap each net.Conn
// in a counter that also captures the bytes written.
func (r *fleetRun) dial(addr string, nconn int) error {
	nconn = max(1, min(nconn, r.p.sessions))
	r.lanes = make([][]lane, nconn)
	r.beats = make([][]beatArrival, nconn)
	r.lag = make([][]time.Duration, nconn)
	r.pushNs = make([]int64, nconn)
	for i := 0; i < nconn; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		if r.traced {
			nc = &countingConn{Conn: nc}
		}
		c := gateway.NewClient(nc, eventDepth)
		r.conns = append(r.conns, nc)
		r.clients = append(r.clients, c)
		r.consumers.Add(1)
		go r.consume(i, c)
	}
	return nil
}

// consume folds one connection's events into the session tallies.
func (r *fleetRun) consume(ci int, c *gateway.Client) {
	defer r.consumers.Done()
	var buf []byte
	n := uint64(len(r.tallies))
	for e := range c.Events() {
		at := r.since()
		idx := e.Session - r.idBase - 1
		if idx >= n {
			r.stray.Add(1)
			continue
		}
		t := &r.tallies[idx]
		t.hash, buf = fold(t.hash, &e, buf)
		t.events++
		switch e.Kind {
		case event.KindBeat:
			t.beats++
			r.beats[ci] = append(r.beats[ci], beatArrival{idx: int(idx), timeS: e.TimeS, at: at})
		case event.KindSessionClosed:
			t.closed = true
			if r.remaining.Add(-1) == 0 {
				r.end.Store(int64(at))
				close(r.allClosed)
			}
		}
	}
}

// openAll opens every session, subscribed, from one goroutine per
// connection: session i rides connection i mod nconn.
func (r *fleetRun) openAll() error {
	for i := 0; i < r.p.sessions; i++ {
		ci := i % len(r.clients)
		r.lanes[ci] = append(r.lanes[ci], lane{idx: i})
	}
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for ci := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range r.lanes[ci] {
				l := &r.lanes[ci][j]
				cs, err := r.clients[ci].Open(uint16(j+1), r.idBase+uint64(l.idx)+1, true)
				if err != nil {
					errs[ci] = fmt.Errorf("open session %d: %w", l.idx, err)
					return
				}
				l.cs = cs
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drive runs the timed traffic: every chunk of every session, then a
// flush-close of each, and waits for every KindSessionClosed.
func (r *fleetRun) drive(timeout time.Duration) error {
	r.firstChunk = r.since()
	var wg sync.WaitGroup
	for ci := range r.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.p.paced {
				r.sendPaced(ci)
			} else {
				r.sendClosed(ci)
			}
			for _, l := range r.lanes[ci] {
				r.closeAt[l.idx] = r.since()
				if err := l.cs.Close(); err != nil && r.pushErr[l.idx] == nil {
					r.pushErr[l.idx] = fmt.Errorf("close: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-r.allClosed:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("%d sessions never delivered KindSessionClosed", r.remaining.Load())
	}
}

// push sends one chunk of session l, wrapped in a span on traced runs.
func (r *fleetRun) push(ci int, l lane, k int) {
	if r.pushErr[l.idx] != nil || (l.idx == r.withhold && k == r.p.chunks/2) {
		return
	}
	e, z := r.p.chunkOf(l.idx, k)
	var t0 time.Time
	if r.traced {
		t0 = time.Now()
	}
	err := l.cs.Push(e, z)
	if r.traced {
		r.pushNs[ci] += int64(time.Since(t0))
	}
	if err != nil {
		r.pushErr[l.idx] = fmt.Errorf("push chunk %d: %w", k, err)
	}
}

// sendClosed is the closed loop: the next chunk goes out as soon as
// the previous write returns.
func (r *fleetRun) sendClosed(ci int) {
	for k := 0; k < r.p.chunks; k++ {
		for _, l := range r.lanes[ci] {
			r.push(ci, l, k)
		}
	}
}

// due is when session idx's chunk k is scheduled in the open loop.
func (r *fleetRun) due(idx, k int) time.Duration {
	return r.firstChunk + r.p.inputs[idx].phase + time.Duration(k)*r.p.period
}

// sendPaced is the open loop: each session's chunk k is due at its
// phase plus k periods, whether or not the server kept up.
func (r *fleetRun) sendPaced(ci int) {
	order := append([]lane(nil), r.lanes[ci]...)
	sort.Slice(order, func(a, b int) bool {
		return r.p.inputs[order[a].idx].phase < r.p.inputs[order[b].idx].phase
	})
	lag := make([]time.Duration, 0, len(order)*r.p.chunks)
	for k := 0; k < r.p.chunks; k++ {
		for _, l := range order {
			due := r.due(l.idx, k)
			now := r.since()
			if now < due {
				time.Sleep(due - now)
				now = r.since()
			}
			lag = append(lag, now-due)
			r.push(ci, l, k)
		}
	}
	r.lag[ci] = lag
}

// closeClients tears the connections down and waits for the consumers.
func (r *fleetRun) closeClients() {
	for _, c := range r.clients {
		c.Close()
	}
	r.consumers.Wait()
}

// connErr returns the first fatal connection error.
func (r *fleetRun) connErr() error {
	for _, c := range r.clients {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// fold chains one event into a session hash: FNV-1a over the previous
// hash and the event's canonical wal encoding, with the session ID
// zeroed so sessions fed identical samples share one reference.
func fold(h uint64, e *event.Event, buf []byte) (uint64, []byte) {
	ev := *e
	ev.Session = 0
	buf = wal.EncodeEvent(buf[:0], &ev)
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		x = (x ^ uint64(byte(h>>(8*i)))) * prime
	}
	for _, b := range buf {
		x = (x ^ uint64(b)) * prime
	}
	return x, buf
}

// countingConn is the traced client's view of its socket: it counts
// write calls and bytes, and keeps every byte written so the traced
// run can replay the identical wire stream through the server layers.
type countingConn struct {
	net.Conn
	mu      sync.Mutex
	writes  int64
	bytes   int64
	capture []byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.bytes += int64(len(b))
	c.capture = append(c.capture, b...)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

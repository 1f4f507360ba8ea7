package main

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"time"
)

// replayConn is a net.Conn whose read side is a captured client wire
// stream and whose write side discards what the gateway sends back.
// It lets the traced run drive the real gateway read loop in-process,
// without sockets.
type replayConn struct {
	r      *bytes.Reader
	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

func newReplayConn(wire []byte) *replayConn {
	return &replayConn{r: bytes.NewReader(wire), done: make(chan struct{})}
}

func (c *replayConn) Read(b []byte) (int, error) { return c.r.Read(b) }

func (c *replayConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return len(b), nil
}

func (c *replayConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	return nil
}

func (c *replayConn) LocalAddr() net.Addr                { return replayAddr{} }
func (c *replayConn) RemoteAddr() net.Addr               { return replayAddr{} }
func (c *replayConn) SetDeadline(t time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(t time.Time) error { return nil }

type replayAddr struct{}

func (replayAddr) Network() string { return "replay" }
func (replayAddr) String() string  { return "replay" }

// replayListener hands out its conns once each, then blocks in Accept
// until closed.
type replayListener struct {
	conns chan net.Conn
	stop  chan struct{}
	once  sync.Once
}

func newReplayListener(conns []*replayConn) *replayListener {
	l := &replayListener{conns: make(chan net.Conn, len(conns)), stop: make(chan struct{})}
	for _, c := range conns {
		l.conns <- c
	}
	return l
}

func (l *replayListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.stop:
		return nil, net.ErrClosed
	}
}

func (l *replayListener) Close() error {
	l.once.Do(func() { close(l.stop) })
	return nil
}

func (l *replayListener) Addr() net.Addr { return replayAddr{} }

var errReplayIncomplete = errors.New("gateway replay: a connection never finished")

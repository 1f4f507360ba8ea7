package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/wal"
)

// serverEnv carries the server process's configuration; its presence
// selects the server role of the benchmark binary (and of its test
// binary, through TestMain).
const serverEnv = "SERVEBENCH_SERVER"

// serverConfig is the gateway process's configuration.
type serverConfig struct {
	// SingleCore runs the server on one core, so its engine has one
	// worker (session.Config's default is GOMAXPROCS workers).
	SingleCore bool   `json:"single_core"`
	WALDir     string `json:"wal_dir"` // non-empty arms session.Config.WAL
}

// serverReport is what the server prints for each "mark" command and
// at exit.
type serverReport struct {
	CPUNs         int64  `json:"cpu_ns"`    // user+sys of the whole process so far
	HeapPeak      uint64 `json:"heap_peak"` // peak /gc/heap/live:bytes since the last mark
	FramesIn      uint64 `json:"frames_in"`
	SamplesIn     uint64 `json:"samples_in"`
	EventsDropped uint64 `json:"events_dropped"`
	ProtocolErrs  uint64 `json:"protocol_errs"`
	ConnsOpen     int64  `json:"conns_open"`
	WALDropped    uint64 `json:"wal_dropped"`
	GCCycles      uint64 `json:"gc_cycles"`
}

// serveMain is the server role: a gateway on an ephemeral loopback
// port, driven by line commands on stdin ("mark", "quit"). It prints
// "addr HOST:PORT" once it accepts connections. EOF on stdin shuts it
// down, so a dead parent never leaves it running.
func serveMain(cfgJSON string) error {
	var cfg serverConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("server config: %w", err)
	}
	if cfg.SingleCore {
		runtime.GOMAXPROCS(1)
	}
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		return err
	}
	var scfg session.Config
	var log *wal.Log
	if cfg.WALDir != "" {
		if log, err = wal.Open(cfg.WALDir, wal.Config{}); err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		scfg.WAL = log
	}
	g := gateway.New(dev, gateway.Config{Session: scfg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- g.Serve(ln) }()

	var peak atomic.Uint64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go sampleHeap(&peak, stopSampler, samplerDone)

	report := func() serverReport {
		st := g.Stats()
		r := serverReport{
			CPUNs:         processCPU(),
			HeapPeak:      peak.Swap(0),
			FramesIn:      st.FramesIn,
			SamplesIn:     st.SamplesIn,
			EventsDropped: st.EventsDropped,
			ProtocolErrs:  st.ProtocolErrs,
			ConnsOpen:     st.ConnsOpen,
			GCCycles:      gcCycles(),
		}
		if log != nil {
			r.WALDropped = log.Dropped()
		}
		return r
	}
	out := json.NewEncoder(os.Stdout)
	fmt.Printf("addr %s\n", ln.Addr())
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd := strings.TrimSpace(in.Text())
		if cmd == "quit" {
			break
		}
		if cmd != "mark" {
			return fmt.Errorf("server: unknown command %q", cmd)
		}
		if err := out.Encode(report()); err != nil {
			return err
		}
	}
	close(stopSampler)
	<-samplerDone
	closeErr := g.Close()
	if err := <-served; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if log != nil {
		if err := log.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	if closeErr != nil {
		return closeErr
	}
	return out.Encode(report())
}

// sampleHeap tracks the peak live heap until stop closes.
func sampleHeap(peak *atomic.Uint64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			v := s[0].Value.Uint64()
			for {
				old := peak.Load()
				if v <= old || peak.CompareAndSwap(old, v) {
					break
				}
			}
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// processCPU returns the calling process's user+sys CPU time.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// serverProc is the parent's handle on a running gateway process.
type serverProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	addr string
}

// startServer launches the benchmark binary in its server role and
// waits until it listens.
func startServer(cfg serverConfig) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serverEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	if !s.out.Scan() {
		s.kill()
		return nil, errors.New("server exited before listening")
	}
	line := s.out.Text()
	if !strings.HasPrefix(line, "addr ") {
		s.kill()
		return nil, fmt.Errorf("server: unexpected greeting %q", line)
	}
	s.addr = strings.TrimPrefix(line, "addr ")
	return s, nil
}

func (s *serverProc) readReport() (serverReport, error) {
	var r serverReport
	if !s.out.Scan() {
		return r, errors.New("server: no report")
	}
	err := json.Unmarshal(s.out.Bytes(), &r)
	return r, err
}

// mark asks the server for its CPU and load counters and resets its
// heap peak.
func (s *serverProc) mark() (serverReport, error) {
	if _, err := io.WriteString(s.in, "mark\n"); err != nil {
		return serverReport{}, err
	}
	return s.readReport()
}

// quit waits until the server has seen every client connection close,
// then shuts the gateway down (every session flushed, the WAL closed)
// and waits for the process to exit; it returns the final report.
// Quitting before the connections drained would cut a read loop that
// had not yet reached EOF, which the gateway rightly counts as a
// transport error.
func (s *serverProc) quit() (serverReport, error) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		r, err := s.mark()
		if err != nil {
			s.kill()
			return r, err
		}
		if r.ConnsOpen == 0 {
			break
		}
	}
	if _, err := io.WriteString(s.in, "quit\n"); err != nil {
		s.kill()
		return serverReport{}, err
	}
	r, rerr := s.readReport()
	s.in.Close()
	werr := s.cmd.Wait()
	if rerr != nil {
		return r, rerr
	}
	return r, werr
}

// kill stops the process on an error path and reaps it.
func (s *serverProc) kill() {
	s.in.Close()
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

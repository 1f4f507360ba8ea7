// Command servebench is the frame-in to event-out benchmark of the
// serving path: device chunks framed by internal/hw/radio go over
// loopback TCP through gateway.Client into a gateway.Gateway running
// in its own process, through session and core.Streamer, and come back
// as typed events that are checked against an in-process reference.
//
//	servebench --workload fleet|paced|tiny-frames|durable --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer table of a traced run. Human-readable lines come first; the
// last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The command exits
// non-zero when any session's event stream is incomplete, fails, or
// differs from the reference.
//
// Run it from the repository root through servebench/run.sh, which
// builds the binary under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/core"
)

// heldOutSeed is reserved for confirming a claimed gain: tune and
// develop on other seeds, then confirm on this one.
const heldOutSeed = 7919

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks session counts and lengths (1 in the benchmark;
	// the smoke tests use less).
	scale float64
	// workDir holds WAL segments while a run needs them.
	workDir string
	// Faults injected by the tests to prove the correctness check
	// bites: a wrong reference hash, a chunk the client never sends,
	// and (durable) a recovered log that disagrees with the clients.
	corruptRef bool
	withhold   bool
	corruptWAL bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a run's lines and collects its JSON metrics.
type report struct {
	w io.Writer
	m map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, m: map[string]metric{}} }

// add records a metric for the JSON result and prints it.
func (r *report) add(name string, v float64, unit string) {
	r.m[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit)
}

// note prints a diagnostic that is not part of the JSON metrics.
func (r *report) note(name string, v float64, unit string) {
	fmt.Fprintf(r.w, "%-34s %14.6g %s\n", name, v, unit)
}

func main() {
	if cfg, ok := os.LookupEnv(serverEnv); ok {
		if err := serveMain(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "servebench server:", err)
			os.Exit(1)
		}
		return
	}
	opt := options{scale: 1, workDir: ".bench_build/tmp"}
	flag.StringVar(&opt.workload, "workload", "fleet", "workload: fleet, paced, tiny-frames or durable")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "run length in seconds")
	trace := flag.Int("trace", 0, "1 prints the traced per-layer table instead of the end-to-end metrics")
	flag.Parse()
	opt.trace = *trace == 1
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report, ending with
// the JSON result line. An error means no result could be produced.
func run(opt options, w io.Writer) (*result, error) {
	s, err := specByName(opt.workload)
	if err != nil {
		return nil, err
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, err
	}
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rep := newReport(w)
	printMeta(w, opt)
	var res *result
	if opt.trace {
		res, err = runTraced(rep, opt, s, dev)
	} else {
		res, err = runE2E(rep, opt, s, dev)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics = rep.m
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(b))
	return res, nil
}

// printMeta prints the run metadata: what ran, where, on which build.
func printMeta(w io.Writer, opt options) {
	commit, goVersion := "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "servebench workload=%s seed=%d seconds=%g trace=%t\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(w, "meta commit=%s go=%s nproc=%d gomaxprocs=%d transport=loopback-tcp heldout_seed=%d\n",
		commit, goVersion, runtime.NumCPU(), runtime.GOMAXPROCS(0), heldOutSeed)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

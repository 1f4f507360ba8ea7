package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary as
// the gateway process the runs spawn.
func TestMain(m *testing.M) {
	if cfg, ok := os.LookupEnv(serverEnv); ok {
		if err := serveMain(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "servebench server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smoke runs a shrunken workload and returns its result and output.
func smoke(t *testing.T, opt options) (*result, string) {
	t.Helper()
	if opt.scale == 0 {
		opt.scale = 0.02
	}
	if opt.seconds == 0 {
		opt.seconds = 4
	}
	opt.seed = 1
	opt.workDir = t.TempDir()
	var out bytes.Buffer
	res, err := run(opt, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", opt.workload, err, out.String())
	}
	return res, out.String()
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit, that the last line is the JSON result, and that clean input
// verifies with no failed session.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a gateway process")
	}
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.Name, traced), func(t *testing.T) {
				res, out := smoke(t, options{workload: w.Name, trace: traced})
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("clean run: correct=%t failed=%d of %d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				if !strings.Contains(out, "fail_frac") {
					t.Errorf("fail_frac not printed\n%s", out)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out, m.Name) || !strings.Contains(out, " "+m.Unit+"\n") {
						t.Errorf("metric %s not printed with unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// TestCheckBites proves the correctness check fails a run: with a
// corrupted reference hash, with a chunk the client withholds, and on
// durable with a recovered log that disagrees with what the clients
// received while both match the reference.
func TestCheckBites(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a gateway process")
	}
	for _, tc := range []struct {
		name   string
		opt    options
		reason string
	}{
		{"corrupt-reference", options{workload: "fleet", corruptRef: true}, "reference"},
		{"withheld-chunk", options{workload: "fleet", withhold: true}, "reference"},
		{"withheld-chunk-durable", options{workload: "durable", withhold: true}, "reference"},
		{"corrupt-wal-durable", options{workload: "durable", corruptWAL: true}, "wal replay hash"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, out := smoke(t, tc.opt)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("fault not detected: correct=%t failed=%d\n%s", res.Correct, res.Failed, out)
			}
			if !strings.Contains(out, "FAIL session 0: ") || !strings.Contains(out, tc.reason) {
				t.Errorf("failure not attributed to session 0 with reason %q\n%s", tc.reason, out)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
}

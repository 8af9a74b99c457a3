package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale runs every code path of every workload in well under a
// second.
var tinyScale = scale{
	bgpSizes:     []int{60},
	bgpMRAIs:     []float64{0, 5},
	bgpHorizon:   40,
	metroSegs:    4,
	metroPerSeg:  3,
	metroHorizon: 60,
	metroChunks:  3,
	optSegs:      4,
	optHorizon:   40,
	largeNs:      []int{100, 10000},
	largeNRounds: 4,
	modelHorizon: 2e4,
	windows:      4,
}

// tinyConfig records tiny-scale digests of w for the scenario seeds a
// run of minPasses passes from seed 1 uses, and returns a config that
// checks against them.
func tinyConfig(t *testing.T, w *workloadDef) *config {
	t.Helper()
	table := digestTable{}
	for seed := int64(1); seed <= minPasses; seed++ {
		if err := record(table, w, tinyScale, seed, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	return &config{w: w, s: tinyScale, seed: 1, k: 2, digests: table, log: io.Discard}
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench makes one run of c and decodes the last line it prints.
func runBench(t *testing.T, c *config, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	spans := filepath.Join(t.TempDir(), "spans.json")
	if err := bench(c, traced, spans, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	if traced {
		if b, err := os.ReadFile(spans); err != nil || len(b) < 10 {
			t.Errorf("spans not written: %v", err)
		}
	}
	return r
}

// TestTinyWorkloads runs every workload at tiny sizes, untraced and
// traced, and checks that each prints every metric with its unit and
// passes its digest check.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := tinyConfig(t, w)
			for _, traced := range []bool{false, true} {
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				r := runBench(t, c, traced)
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v failed=%d of %d", traced, r.Correct, r.Failed, r.Attempted)
				}
				if len(r.Metrics) != len(specs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(r.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := r.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			}
		})
	}
}

// TestTamperedDigest checks that a wrong recorded digest fails the run.
func TestTamperedDigest(t *testing.T) {
	c := tinyConfig(t, metroLAN)
	want := c.want(c.seed)
	for name, e := range want {
		e.Digest = strings.Repeat("0", len(e.Digest))
		want[name] = e
	}
	r := runBench(t, c, false)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("tampered digest: correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
	}
}

// TestEnvGuard checks that either knob in the environment refuses the
// run before anything is measured or printed.
func TestEnvGuard(t *testing.T) {
	for _, k := range knobEnv {
		t.Run(k, func(t *testing.T) {
			t.Setenv(k, "typo")
			var out, errs bytes.Buffer
			if code := run([]string{"--workload", "metrolan", "--seconds", "0"}, &out, &errs); code == 0 {
				t.Fatalf("exit code 0 with %s set", k)
			}
			if out.Len() != 0 || !strings.Contains(errs.String(), k) {
				t.Fatalf("stdout %q, stderr %q", out.String(), errs.String())
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		code []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.json) != len(set.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(set.json), len(set.code))
		}
		for i, m := range set.code {
			if set.json[i].Name != m.name || set.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, set.json[i].Name, set.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

func TestRoutesyncLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"routesync/internal/des.(*Simulator).siftDown": "des",
		"routesync/internal/experiments.ExtBGP.func1":  "experiments",
		"routesync/internal/parallel.RunOrdered[...]":  "parallel",
		"main.(*counters).EventFired":                  "bench",
		"runtime.mallocgc":                             "",
		"sort.Float64s":                                "",
		"routesync.Version":                            "routesync",
		"routesyncother/x.F":                           "",
	} {
		if got := routesyncLayer(fn); got != want {
			t.Errorf("routesyncLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestScenarioSeed(t *testing.T) {
	for seed, want := range map[int64]int64{0: 1, 1: 2, 15: 16, 16: 1, -1: 16, 1 << 40: 1} {
		if got := scenarioSeed(seed); got != want {
			t.Errorf("scenarioSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

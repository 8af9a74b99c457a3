// Command perfbench is the routesync end-to-end benchmark. It runs one
// workload (bgp_mrai, metrolan or periodic_model) through the
// simulator's public entry points for a fixed host-time budget, checks
// every sweep point's result against a recorded digest, and prints its
// metrics, the last line being one JSON object. README.md explains the
// workloads and what each metric should move.
//
//	go run . --workload bgp_mrai --seed 1 --seconds 30 --trace 0
//
// Run it from the repository root (perfbench/run.sh builds and runs it
// there); --trace 1 prints the per-layer metrics instead and writes the
// run's spans under .bench_build/spans.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"routesync/internal/des"
	"routesync/internal/netsim"
)

// metric names one reported value and its unit.
type metric struct{ name, unit string }

// endToEnd is printed by untraced runs; perLayer by traced runs. Both
// lists match BENCHMARK.json (a self-test checks this).
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metric{
	{"experiments.build_s", "s"},
	{"experiments.analyze_s", "s"},
	{"trace.render_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"des.events_fired", "count"},
	{"des.events_scheduled", "count"},
	{"des.events_cancelled", "count"},
	{"des.queue_depth_max", "count"},
	{"des.cpu_share", "fraction"},
	{"netsim.cpu_share", "fraction"},
	{"netsim.sync_windows", "count"},
	{"netsim.windows_per_sim_s", "1/sim_s"},
	{"netsim.rollbacks", "count"},
	{"netsim.rollback_depth_max_s", "sim_s"},
	{"netsim.useful_event_frac", "fraction"},
	{"netsim.k_speedup", "ratio"},
	{"netsim.optimistic_speedup", "ratio"},
	{"protocol.cpu_share", "fraction"},
	{"pathvector.cpu_share", "fraction"},
	{"pathvector.flushes", "count"},
	{"routing.cpu_share", "fraction"},
	{"periodic.steps", "count"},
	{"periodic.steps_per_s.small_n", "1/s"},
	{"periodic.steps_per_s.large_n", "1/s"},
	{"periodic.cpu_share", "fraction"},
	{"cluster.cpu_share", "fraction"},
	{"rng.cpu_share", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.sched_share", "fraction"},
	{"runtime.cpu_util", "fraction"},
	{"calib_ns", "ns"},
}

// knobEnv lists the environment knobs that silently fall back to a
// default on an unknown value; the benchmark refuses to run under either.
var knobEnv = []string{des.BackendEnv, netsim.SyncModeEnv}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: bgp_mrai, metrolan or periodic_model")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 30, "host seconds of workload passes to measure")
	traced := fl.Int("trace", 0, "1: traced run printing per-layer metrics")
	record := fl.String("record", "", "record digests for every scenario seed of -workload into this file and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || (*traced != 0 && *traced != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload bgp_mrai|metrolan|periodic_model and --trace 0|1\n")
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record, w, fullScale, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	table, err := loadDigests(recordedDigests)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	c := &config{
		w: w, s: fullScale, seed: scenarioSeed(*seed), k: runtime.NumCPU(),
		seconds: *seconds, digests: table, log: stderr,
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	if err := bench(c, *traced == 1, spans, stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// bench makes one run and prints its environment record, a summary and,
// last, the JSON result.
func bench(c *config, traced bool, spansPath string, out io.Writer) error {
	calib := calibrate()
	env := environment(calib)
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# env %s\n", envJSON)

	var r report
	specs := endToEnd
	if traced {
		specs = perLayer
		if r, err = traceRun(c, spansPath); err != nil {
			return err
		}
		r.metrics["calib_ns"] = calib
		fmt.Fprintf(out, "# spans %s\n", spansPath)
	} else {
		r = measure(c)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	fmt.Fprintf(out, "# %s scenario seed %d, K=%d\n", c.w.name, c.seed, c.k)
	for _, m := range specs {
		v := r.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(out, "# %-32s %.10g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(out, "# fail_frac %g (%d of %d points failed)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// checkEnv refuses a run under either knob: an unknown value falls back
// to the default silently, so the run would measure a configuration
// nobody asked for.
func checkEnv() error {
	for _, k := range knobEnv {
		if v, ok := os.LookupEnv(k); ok {
			return fmt.Errorf("perfbench: %s=%q is set; unset it, the benchmark measures the program's defaults", k, v)
		}
	}
	return nil
}

// envRecord describes the machine and configuration a run measured.
type envRecord struct {
	DESBackend string  `json:"des_backend"`
	SyncMode   string  `json:"sync_mode"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	CalibNS    float64 `json:"calib_ns"`
}

func environment(calib float64) envRecord {
	return envRecord{
		DESBackend: des.DefaultBackend().String(),
		SyncMode:   netsim.DefaultSyncMode().String(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		CPU:        cpuModel(),
		CalibNS:    calib,
	}
}

// commit is the VCS revision stamped into the binary or, when it was
// built outside a repository, "src:" plus a hash of the Go sources under
// the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out"):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod"):
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil)[:8])
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibSink uint64

// calibrate times a fixed CPU-bound reference loop (a dependent
// xorshift-multiply chain that stays in registers) and returns the
// median nanoseconds per iteration over seven repetitions. It is
// reported, never gated: it lets numbers from different machines be
// compared.
func calibrate() float64 {
	const iters = 1 << 22
	x := uint64(88172645463325252)
	var reps []float64
	for r := 0; r < 7; r++ {
		t := time.Now()
		x = xorshiftChain(x, iters)
		reps = append(reps, float64(time.Since(t).Nanoseconds())/iters)
	}
	calibSink = x
	return median(reps)
}

// recordDigests runs every point of w at K=1 for every scenario seed and
// stores the outcomes in path, keeping other workloads' entries.
func recordDigests(path string, w *workloadDef, s scale, log io.Writer) error {
	table := digestTable{}
	if b, err := os.ReadFile(path); err == nil {
		if table, err = loadDigests(b); err != nil {
			return err
		}
	}
	delete(table, w.name)
	for seed := int64(1); seed <= scenarioSeeds; seed++ {
		if err := record(table, w, s, seed, log); err != nil {
			return err
		}
	}
	return writeDigests(path, table)
}

// record runs every point of w sequentially (K=1) for one scenario seed
// and stores each outcome in table.
func record(table digestTable, w *workloadDef, s scale, seed int64, log io.Writer) error {
	for _, pt := range w.points(s) {
		x := &pointCtx{seed: seed, k: 1, obs: &counters{}}
		digest, err := execute(pt, x, s)
		if err != nil {
			return fmt.Errorf("perfbench: recording %s seed %d %s: %w", w.name, seed, pt.name, err)
		}
		table.set(w.name, seed, pt.name, expect{Digest: digest, Events: x.obs.events()})
		fmt.Fprintf(log, "recorded %s seed %d %s %s events %d\n", w.name, seed, pt.name, digest, x.obs.events())
	}
	return nil
}

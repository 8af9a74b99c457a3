package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"routesync/internal/netsim"
)

// minPasses is the fewest workload passes an untraced run makes, however
// short --seconds is, so wall_s is always a median of at least three.
const minPasses = 3

// config is one benchmark invocation.
type config struct {
	w       *workloadDef
	s       scale
	seed    int64 // scenario seed (1..scenarioSeeds) of set-up, traced runs and the first pass
	k       int   // logical processes / sweep jobs: nproc
	seconds float64
	probe   *hostProbe  // host-speed probe; nil in traced runs
	digests digestTable // recorded outcomes
	log     io.Writer   // diagnostics
}

// want is the recorded outcome of every point at one scenario seed.
func (c *config) want(seed int64) map[string]expect {
	return c.digests.lookup(c.w.name, seed)
}

// refEvents is the workload's reference event count at one scenario
// seed: the recorded sequential (K=1) runs' exact counts, summed over
// points.
func (c *config) refEvents(seed int64) uint64 {
	var n uint64
	for _, e := range c.want(seed) {
		n += e.Events
	}
	return n
}

// passResult is one execution of every point of a workload.
type passResult struct {
	wall              time.Duration
	pointWalls        []float64     // seconds per point, in point order, adjusted by the probe
	rawWall           float64       // Σ point seconds, not adjusted
	slowdown          float64       // median probe time of the pass ÷ its nominal
	entry             time.Duration // Σ time inside entry calls
	attempted, failed int
	counts            tally
	simSeconds        float64
	classSteps        map[string]uint64
	classSeconds      map[string]float64
	ctxs              []*pointCtx
}

// execute runs one point, turning a panic into an error, and returns the
// digest of its result.
func execute(pt point, x *pointCtx, s scale) (digest string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	text := pt.run(x, s)
	return digestOf(text, x.obs.events()), nil
}

// runPass executes every point at K = c.k and scenario seed seed, and
// checks each digest. With a probe, the probe runs before each point and
// after each of its entry calls, and every point's time, probes
// excluded, is adjusted by the pass's median probe time.
func runPass(c *config, seed int64, tr *tracer, parent int) passResult {
	p := passResult{classSteps: map[string]uint64{}, classSeconds: map[string]float64{}}
	start := time.Now()
	want := c.want(seed)
	var raws []float64
	for _, pt := range c.w.points(c.s) {
		c.probe.run()
		spent := c.probe.total()
		t0 := time.Now()
		x := &pointCtx{seed: seed, k: c.k, obs: &counters{}, tr: tr, trace: c.w.name + "/" + pt.name, probe: c.probe}
		x.parent = tr.begin(x.trace, "point", parent)
		digest, err := execute(pt, x, c.s)
		if err == nil {
			switch e, ok := want[pt.name]; {
			case !ok:
				err = errors.New("no digest recorded for this seed")
			case digest != e.Digest:
				err = fmt.Errorf("digest %s (events %d), recorded %s (events %d)", digest, x.obs.events(), e.Digest, e.Events)
			}
		}
		tr.end(x.parent)
		raw := time.Since(t0).Seconds() - (c.probe.total() - spent)
		raws = append(raws, raw)
		p.rawWall += raw
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(c.log, "perfbench: %s seed %d %s: %v\n", c.w.name, seed, pt.name, err)
		}
		p.entry += x.entry
		p.counts.add(x.obs)
		p.simSeconds += x.simSeconds
		if pt.class != "" {
			p.classSteps[pt.class] += x.obs.rounds.Load()
			p.classSeconds[pt.class] += x.entry.Seconds()
		}
		p.ctxs = append(p.ctxs, x)
	}
	p.wall = time.Since(start)
	probe := c.probe.take()
	for _, raw := range raws {
		p.pointWalls = append(p.pointWalls, c.probe.adjust(raw, probe))
	}
	if c.probe != nil {
		p.slowdown = probe / c.probe.nominal
	}
	return p
}

// timeSetup builds every scenario of the workload alone, repeatedly, and
// returns the median seconds per repetition, each adjusted by the probes
// around its builds when c has a probe: at least three repetitions, more
// (up to 25) while together they take under two seconds.
func timeSetup(c *config, tr *tracer, parent int) float64 {
	var reps []float64
	total := 0.0
	for len(reps) < 3 || (len(reps) < 25 && total < 2) {
		runtime.GC()
		c.probe.run()
		x := &pointCtx{seed: c.seed, k: c.k, tr: tr, trace: c.w.name + "/setup", parent: parent, probe: c.probe}
		c.w.setup(x, c.s)
		reps = append(reps, c.probe.adjust(x.entry.Seconds(), c.probe.take()))
		total += x.entry.Seconds()
	}
	return median(reps)
}

// report is what one run prints.
type report struct {
	metrics           map[string]float64
	attempted, failed int
}

// measure is the untraced run: set-up timing, then workload passes for
// c.seconds (at least minPasses), reporting medians and the peak resident
// set. Times are adjusted by the workload's host-speed probe. Pass i
// runs the scenario seed i after c.seed, so a run's figures stand for
// several inputs rather than one. wall_s is taken point by point, as the
// sum over points of each point's median time across passes, so a
// slowdown of the host that hits part of one pass is voted out. Memory
// goes back to the OS before each pass, so each pass's peak is its own;
// the probe's own resident memory, measured as it is built, is taken off
// the peak.
func measure(c *config) report {
	r := report{metrics: map[string]float64{}}
	debug.FreeOSMemory()
	base := residentMB()
	c.probe = c.w.probe()
	probeMB := max(residentMB()-base, 0)
	setup := timeSetup(c, nil, 0)
	var walls, raws, slow, rss, refs []float64
	var seeds []int64
	var pointWalls [][]float64 // [point][pass]
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds()+walls[len(walls)-1] <= c.seconds {
		debug.FreeOSMemory()
		peak := sampleRSS()
		seed := scenarioSeed(c.seed - 1 + int64(len(walls)))
		p := runPass(c, seed, nil, 0)
		seeds = append(seeds, seed)
		refs = append(refs, float64(c.refEvents(seed)))
		rss = append(rss, max(peak()-probeMB, 0))
		walls = append(walls, p.wall.Seconds())
		raws = append(raws, p.rawWall)
		slow = append(slow, p.slowdown)
		for i, w := range p.pointWalls {
			if i == len(pointWalls) {
				pointWalls = append(pointWalls, nil)
			}
			pointWalls[i] = append(pointWalls[i], w)
		}
		r.attempted += p.attempted
		r.failed += p.failed
	}
	wall := 0.0
	for _, w := range pointWalls {
		wall += median(w)
	}
	r.metrics["wall_s"] = wall
	r.metrics["setup_s"] = setup
	r.metrics["events_per_s"] = mean(refs) / (wall - setup)
	// A peak, so the largest pass: per pass it depends on where GC cycles
	// fall, and the maximum over passes is steadier than their median.
	r.metrics["peak_rss_mb"] = slices.Max(rss)
	fmt.Fprintf(c.log, "perfbench: %s: %d passes at seeds %v, point seconds %s (unadjusted), probe ÷ nominal %s, peak_rss_mb %s (probe's %.1f MB taken off)\n",
		c.w.name, len(walls), seeds, fmtList(raws), fmtList(slow), fmtList(rss), probeMB)
	return r
}

// traceRun is the traced run. It times one untraced pass, then one pass
// with spans and a CPU profile, then (bgp_mrai, metrolan) reruns every
// point at K=1 and checks it against the K = nproc result, and
// (metrolan) races the two sync modes on a small metro-LAN. Spans are
// written to spansPath at the end.
func traceRun(c *config, spansPath string) (report, error) {
	r := report{metrics: map[string]float64{}}
	m := r.metrics
	tr := newTracer()
	root := tr.begin(c.w.name, "workload", 0)

	ph := tr.begin(c.w.name, "setup", root)
	m["experiments.build_s"] = timeSetup(c, tr, ph)
	tr.end(ph)

	runtime.GC()
	cpu0 := cpuSeconds()
	untraced := runPass(c, c.seed, nil, 0)
	cpu := cpuSeconds() - cpu0
	m["runtime.cpu_util"] = cpu / (untraced.wall.Seconds() * float64(runtime.NumCPU()))

	runtime.GC()
	rt0 := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return r, fmt.Errorf("perfbench: starting CPU profile: %w", err)
	}
	ph = tr.begin(c.w.name, "traced_pass", root)
	traced := runPass(c, c.seed, tr, ph)
	tr.end(ph)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	m["trace.render_s"] = tr.seconds("render", 0)
	m["trace.overhead_frac"] = traced.wall.Seconds()/untraced.wall.Seconds() - 1
	for _, p := range []passResult{untraced, traced} {
		r.attempted += p.attempted
		r.failed += p.failed
	}

	shares, err := layerShares(prof.Bytes())
	if err != nil {
		return r, fmt.Errorf("perfbench: reading CPU profile: %w", err)
	}
	for _, l := range []string{"des", "netsim", "protocol", "pathvector", "routing", "periodic", "cluster", "rng"} {
		m[l+".cpu_share"] = shares[l]
	}
	m["runtime.sched_share"] = shares["runtime.sched"]
	if used := (rt1.total - rt1.idle) - (rt0.total - rt0.idle); used > 0 {
		m["runtime.gc_cpu_frac"] = (rt1.gc - rt0.gc) / used
	}
	m["runtime.alloc_mb"] = float64(rt1.allocs-rt0.allocs) / (1 << 20)

	t := traced.counts
	m["des.events_fired"] = float64(t.fired)
	m["des.events_scheduled"] = float64(t.scheduled)
	m["des.events_cancelled"] = float64(t.cancelled)
	m["des.queue_depth_max"] = float64(t.depthMax)
	m["netsim.sync_windows"] = float64(t.windows)
	if traced.simSeconds > 0 {
		m["netsim.windows_per_sim_s"] = float64(t.windows) / traced.simSeconds
	}
	if t.fired > 0 {
		m["netsim.useful_event_frac"] = float64(c.refEvents(c.seed)) / float64(t.fired)
	}
	m["periodic.steps"] = float64(t.rounds)
	for _, class := range []string{"small_n", "large_n"} {
		if secs := traced.classSeconds[class]; secs > 0 {
			m["periodic.steps_per_s."+class] = float64(traced.classSteps[class]) / secs
		}
	}

	// K=1 reference: every point again, sequentially, through the
	// scenario builders in RunUntil windows.
	ph = tr.begin(c.w.name, "reference_k1", root)
	mark := len(tr.spans)
	var k1 time.Duration
	var flushes int
	for i, pt := range c.w.points(c.s) {
		if pt.reference == nil {
			continue
		}
		want := traced.ctxs[i]
		x := &pointCtx{seed: c.seed, k: 1, obs: &counters{}, tr: tr, trace: want.trace, result: want.result}
		x.parent = tr.begin(x.trace, "point", ph)
		err := reference(pt, x, c.s, want)
		tr.end(x.parent)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(c.log, "perfbench: %s seed %d %s: %v\n", c.w.name, c.seed, pt.name, err)
		}
		k1 += x.entry
		flushes += x.flushes
	}
	tr.end(ph)
	m["experiments.analyze_s"] = tr.seconds("analyze", mark)
	m["pathvector.flushes"] = float64(flushes)
	if k1 > 0 {
		m["netsim.k_speedup"] = k1.Seconds() / untraced.entry.Seconds()
	}

	if c.w.syncRace != nil {
		ph = tr.begin(c.w.name, "sync_race", root)
		speedup, race, err := raceSyncModes(c, tr, ph)
		tr.end(ph)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(c.log, "perfbench: %s seed %d sync race: %v\n", c.w.name, c.seed, err)
		}
		m["netsim.optimistic_speedup"] = speedup
		m["netsim.rollbacks"] = float64(race.rollbacks)
		m["netsim.rollback_depth_max_s"] = race.rollbackDepthMax
	}
	tr.end(root)
	if err := tr.write(spansPath); err != nil {
		return r, fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return r, nil
}

// reference runs pt's K=1 check, turning a panic into an error, and
// compares the exact event count with the K = nproc run's.
func reference(pt point, x *pointCtx, s scale, want *pointCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("K=1 reference panic: %v", r)
		}
	}()
	if err := pt.reference(x, s); err != nil {
		return err
	}
	if got, w := x.obs.events(), want.obs.events(); got != w {
		return fmt.Errorf("K=1 fired %d events, K=%d fired %d", got, want.k, w)
	}
	return nil
}

// raceSyncModes runs the workload's small sync-race scenario three times
// in each synchronization mode at K = c.k, alternating, and returns the
// conservative ÷ optimistic median time plus the first optimistic run's
// counters. The two modes must produce the same result.
func raceSyncModes(c *config, tr *tracer, parent int) (float64, tally, error) {
	var times [2][]float64
	var opt tally
	var err error
	modes := []netsim.SyncMode{netsim.SyncConservative, netsim.SyncOptimistic}
	results := make([]string, len(modes))
	for rep := 0; rep < 3; rep++ {
		for i, mode := range modes {
			runtime.GC()
			x := &pointCtx{seed: c.seed, k: c.k, obs: &counters{}, tr: tr, trace: c.w.name + "/sync_race/" + mode.String(), parent: parent}
			results[i] = c.w.syncRace(x, c.s, mode)
			times[i] = append(times[i], x.entry.Seconds())
			if mode == netsim.SyncOptimistic && rep == 0 {
				opt.add(x.obs)
			}
		}
		if results[0] != results[1] {
			err = errors.New("optimistic result differs from conservative")
		}
	}
	return median(times[0]) / median(times[1]), opt, err
}

// runtimeSample is the runtime/metrics subset the traced run reads.
type runtimeSample struct {
	gc, total, idle float64 // cpu-seconds
	allocs          uint64  // cumulative heap bytes allocated
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	var allocs uint64
	if s[3].Value.Kind() == metrics.KindUint64 {
		allocs = s[3].Value.Uint64()
	}
	return runtimeSample{gc: f(0), total: f(1), idle: f(2), allocs: allocs}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// residentMB is the process's resident set now, in MiB, from
// /proc/self/statm (0 where that is unavailable).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	return statmMB(b)
}

// statmMB reads the resident set, statm's second field in pages, in MiB.
func statmMB(b []byte) float64 {
	if fields := bytes.Fields(b); len(fields) > 1 {
		if v, err := strconv.ParseInt(string(fields[1]), 10, 64); err == nil {
			return float64(v*int64(os.Getpagesize())) / (1 << 20)
		}
	}
	return 0
}

// sampleRSS starts sampling the process's resident set every 2 ms and
// returns a function that stops the sampler, waits for it, and returns
// the peak seen in MiB. It reads /proc/self/statm and reports 0 where
// that is unavailable.
func sampleRSS() (stop func() float64) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return func() float64 { return 0 }
	}
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		defer f.Close()
		var max float64
		buf := make([]byte, 128)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if n, err := f.ReadAt(buf, 0); n > 0 && (err == nil || err == io.EOF) {
				if v := statmMB(buf[:n]); v > max {
					max = v
				}
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fmtList(v []float64) string {
	var b bytes.Buffer
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}

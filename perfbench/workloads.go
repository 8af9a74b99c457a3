package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"routesync/internal/experiments"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/periodic"
	"routesync/internal/stats"
	"routesync/internal/workload"
)

// scale fixes every size a workload runs at. fullScale is what the
// benchmark measures; the self-tests run a tiny scale.
type scale struct {
	bgpSizes   []int
	bgpMRAIs   []float64
	bgpHorizon float64

	metroSegs, metroPerSeg int
	metroHorizon           float64
	// metroChunks is how many RunUntil calls a metro-LAN point's run is
	// split into, so the host-speed probe samples the host within it.
	metroChunks int
	// optSegs and optHorizon size the metro-LAN on which conservative and
	// optimistic synchronization are raced in the traced run.
	optSegs    int
	optHorizon float64

	largeNs      []int
	largeNRounds int
	modelHorizon float64

	// windows is how many RunUntil windows the traced K=1 reference run
	// splits each network horizon into.
	windows int
}

var fullScale = scale{
	bgpSizes:     []int{1000, 2500},
	bgpMRAIs:     []float64{0, 5, 30},
	bgpHorizon:   160,
	metroSegs:    32,
	metroPerSeg:  6,
	metroHorizon: 3000,
	metroChunks:  60,
	optSegs:      8,
	optHorizon:   1000,
	largeNs:      []int{1000, 3162, 10000, 31623, 100000},
	largeNRounds: 50,
	modelHorizon: 1e7,
	windows:      16,
}

// bgpJitters mirrors ExtBGP's jitter axis, in its series order.
var bgpJitters = []string{"none", "uniform"}

// largeN is the population from which a periodic-model point counts as
// large-N in periodic.steps_per_s.large_n.
const largeN = 10000

// workloadDef is one benchmark workload: a closed batch of sweep points
// run one after another by a single caller.
type workloadDef struct {
	name string
	// points lists the sweep points in run order.
	points func(s scale) []point
	// setup builds every scenario the points run, without running them.
	setup func(x *pointCtx, s scale)
	// probe makes the host-speed probe (probe.go) whose time the
	// workload's own follows as the host's speed drifts; README.md
	// ("Host-speed adjustment") has the measurements that chose it.
	probe func() *hostProbe
	// syncRace, when set, runs the small scenario on which the traced run
	// races the two sync modes, and returns its result text.
	syncRace func(x *pointCtx, s scale, mode netsim.SyncMode) string
}

// point is one sweep point: a set of entry calls returning a result that
// is checked against its recorded digest.
type point struct {
	name string
	// class groups periodic-model points for steps_per_s: "small_n" for
	// the N=20 figure points, "large_n" for N ≥ largeN; empty otherwise.
	class string
	// run makes the point's entry calls at x.k logical processes and
	// returns the text its digest covers.
	run func(x *pointCtx, s scale) string
	// reference, when set, reruns the point sequentially (K=1) through
	// the scenario builders in RunUntil windows and reports any
	// difference from the K=x.k result run left in x.result.
	reference func(x *pointCtx, s scale) error
}

// pointCtx carries one point execution's parameters and measurements.
type pointCtx struct {
	seed   int64
	k      int
	obs    *counters
	tr     *tracer
	trace  string
	parent int

	probe      *hostProbe    // run after every call when set (untraced runs)
	entry      time.Duration // time inside entry calls (render excluded)
	simSeconds float64       // simulated seconds of network runs
	result     any           // the result reference compares against
	flushes    int           // Σ pathvector flushes (reference runs)
}

// call times fn as one call into the program, then runs the host-speed
// probe, if any, so it samples the host between calls.
func (x *pointCtx) call(name string, fn func()) {
	id := x.tr.begin(x.trace, name, x.parent)
	t := time.Now()
	fn()
	x.entry += time.Since(t)
	x.tr.end(id)
	x.probe.run()
}

// render draws r (timed as the "render" span) and returns the text a
// digest covers: the rendering plus every series value, bit-exact.
func (x *pointCtx) render(r *experiments.Result) string {
	id := x.tr.begin(x.trace, "render", x.parent)
	txt := r.RenderASCII()
	x.tr.end(id)
	var b strings.Builder
	b.WriteString(txt)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %q\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "%016x %016x\n", math.Float64bits(s.X[i]), math.Float64bits(s.Y[i]))
		}
	}
	return b.String()
}

// runWindows advances a network to horizon in equal RunUntil windows, one
// span per call.
func (x *pointCtx) runWindows(nw *netsim.Network, horizon float64, windows int) {
	for i := 1; i <= windows; i++ {
		t := horizon * float64(i) / float64(windows)
		x.call("run_until", func() { nw.RunUntil(t) })
	}
}

var workloads = []*workloadDef{bgpMRAI, metroLAN, periodicModel}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bgp_mrai: experiments.ExtBGP, one call per (size, MRAI) point, both
// jitter arms inside each call, K = nproc partitions.
var bgpMRAI = &workloadDef{
	name:  "bgp_mrai",
	probe: newCoreProbe,
	points: func(s scale) []point {
		var ps []point
		for _, n := range s.bgpSizes {
			for _, mrai := range s.bgpMRAIs {
				ps = append(ps, point{
					name: fmt.Sprintf("n=%d/mrai=%g", n, mrai),
					run: func(x *pointCtx, s scale) string {
						var r *experiments.Result
						x.call("ExtBGP", func() {
							r = experiments.ExtBGP(experiments.BGPConfig{
								Sizes: []int{n}, MRAIs: []float64{mrai}, Horizon: s.bgpHorizon,
								Jobs: x.k, Seed: x.seed, Obs: x.obs,
							})
						})
						x.result = r
						x.simSeconds = float64(len(bgpJitters)) * s.bgpHorizon
						return x.render(r)
					},
					reference: func(x *pointCtx, s scale) error {
						want := x.result.(*experiments.Result)
						for j, jit := range bgpJitters {
							var sc *experiments.BGPScenario
							x.call("build", func() {
								sc = experiments.BuildBGP(n, 1, mrai, jit, x.seed, s.bgpHorizon, x.obs)
							})
							x.runWindows(sc.Net, s.bgpHorizon, s.windows)
							var got [3]float64
							x.call("analyze", func() {
								got = [3]float64{sc.SyncClusterFraction(), sc.BurstRatio(), sc.StormLength()}
								sc.StormChanges()
								sc.ReachFraction(sc.ProbeOrigin)
							})
							for _, f := range sc.FlushTimes {
								x.flushes += len(f)
							}
							for i, v := range got {
								idx := 3*j + i
								if idx >= len(want.Series) || len(want.Series[idx].Y) != 1 ||
									math.Float64bits(want.Series[idx].Y[0]) != math.Float64bits(v) {
									return fmt.Errorf("jitter %s: K=1 %s = %v differs from the K=%d result", jit, []string{"cluster", "burst", "storm"}[i], v, x.k)
								}
							}
						}
						return nil
					},
				})
			}
		}
		return ps
	},
	setup: func(x *pointCtx, s scale) {
		for _, n := range s.bgpSizes {
			for _, mrai := range s.bgpMRAIs {
				for _, jit := range bgpJitters {
					x.call("build", func() { experiments.BuildBGP(n, x.k, mrai, jit, x.seed, s.bgpHorizon, nil) })
				}
			}
		}
	},
}

// metrolan: experiments.BuildMetroLAN plus a run to the horizon at K =
// nproc in the program's default sync mode, in metroChunks RunUntil
// calls (Run is one RunUntil to the horizon); the checked output is the
// ping result.
var metroLAN = &workloadDef{
	name:  "metrolan",
	probe: newCacheProbe,
	points: func(s scale) []point {
		run := func(x *pointCtx, s scale, windows int) string {
			var sc *experiments.MetroLANScenario
			x.call("build", func() {
				sc = experiments.BuildMetroLAN(s.metroSegs, s.metroPerSeg, x.k, x.seed, s.metroHorizon, x.obs)
			})
			x.runWindows(sc.Net, s.metroHorizon, windows)
			var res workload.PingResult
			x.call("analyze", func() { res = sc.Pinger.Result() })
			x.simSeconds = s.metroHorizon
			return x.render(pingFigure(res))
		}
		return []point{{
			name: fmt.Sprintf("%dx%d", s.metroSegs, s.metroPerSeg),
			run: func(x *pointCtx, s scale) string {
				txt := run(x, s, s.metroChunks)
				x.result = txt
				return txt
			},
			reference: func(x *pointCtx, s scale) error {
				if run(x, s, s.windows) != x.result.(string) {
					return fmt.Errorf("K=1 ping result differs from the K=%d result", x.k)
				}
				return nil
			},
		}}
	},
	setup: func(x *pointCtx, s scale) {
		x.call("build", func() {
			experiments.BuildMetroLAN(s.metroSegs, s.metroPerSeg, x.k, x.seed, s.metroHorizon, nil)
		})
	},
	syncRace: func(x *pointCtx, s scale, mode netsim.SyncMode) string {
		var sc *experiments.MetroLANScenario
		x.call("build", func() {
			sc = experiments.BuildMetroLAN(s.optSegs, s.metroPerSeg, x.k, x.seed, s.optHorizon, x.obs, netsim.WithSyncMode(mode))
		})
		x.call("run", sc.Run)
		return x.render(pingFigure(sc.Pinger.Result()))
	},
}

// pingFigure turns a ping result into a figure: RTT per ping (NaN where
// lost) with the loss count as a note.
func pingFigure(res workload.PingResult) *experiments.Result {
	ser := stats.Series{Name: "ping RTT (s)"}
	for i, v := range res.RTTs {
		ser.Append(float64(i), v)
	}
	r := &experiments.Result{ID: "metrolan", Title: "ping across the metro LAN", Series: []stats.Series{ser}}
	r.Notef("%d sent, %d lost", res.Sent, res.Lost())
	return r
}

// The periodic model's fixed parameters, as ExtLargeN and the paper's §4
// set them; setup builds the same systems the entry calls build.
const (
	modelTc    = 0.11
	largeNTpN  = 6.05 // ExtLargeN scales Tp with N
	largeNTrTc = 2.5
)

var (
	fig7Trs = []float64{0.6, 1.0, 1.4}
	fig8Trs = []float64{2.3, 2.5, 2.8}
)

// periodic_model: experiments.ExtLargeN one N per point, then Fig7 and
// Fig8 one random component per point, at the paper's horizon.
var periodicModel = &workloadDef{
	name:  "periodic_model",
	probe: newCoreProbe,
	points: func(s scale) []point {
		var ps []point
		for _, n := range s.largeNs {
			class := "" // 1k and 3162 sit between the two classes
			if n >= largeN {
				class = "large_n"
			}
			ps = append(ps, point{
				name: fmt.Sprintf("largen/n=%d", n), class: class,
				run: func(x *pointCtx, s scale) string {
					var r *experiments.Result
					x.call("ExtLargeN", func() { r = experiments.ExtLargeN([]int{n}, s.largeNRounds, x.seed, x.obs) })
					return x.render(r)
				},
			})
		}
		for _, fig := range []struct {
			id  string
			trs []float64
			run func(experiments.ModelConfig, float64) *experiments.Result
		}{
			{"fig07", fig7Trs, func(c experiments.ModelConfig, tr float64) *experiments.Result {
				r, _ := experiments.Fig7(c, []float64{tr})
				return r
			}},
			{"fig08", fig8Trs, func(c experiments.ModelConfig, tr float64) *experiments.Result {
				r, _ := experiments.Fig8(c, []float64{tr}, 0)
				return r
			}},
		} {
			for _, tr := range fig.trs {
				ps = append(ps, point{
					name: fmt.Sprintf("%s/tr=%gtc", fig.id, tr), class: "small_n",
					run: func(x *pointCtx, s scale) string {
						var r *experiments.Result
						x.call(fig.id, func() {
							r = fig.run(experiments.ModelConfig{Seed: x.seed, Horizon: s.modelHorizon, Obs: x.obs}, tr)
						})
						return x.render(r)
					},
				})
			}
		}
		return ps
	},
	setup: func(x *pointCtx, s scale) {
		build := func(cfg periodic.Config) {
			x.call("build", func() { periodic.New(cfg) })
		}
		for _, n := range s.largeNs {
			for _, start := range []periodic.StartState{periodic.StartSynchronized, periodic.StartUnsynchronized} {
				build(periodic.Config{N: n, Tc: modelTc, Start: start, Seed: x.seed,
					Jitter: jitter.Uniform{Tp: largeNTpN * float64(n), Tr: largeNTrTc * modelTc}})
			}
		}
		// Fig7 and Fig8 build two systems per random component: one for
		// the cluster graph, one for the time to (un)synchronize.
		for _, tr := range fig7Trs {
			cfg := periodic.Paper(20, tr*modelTc, x.seed)
			cfg.Start = periodic.StartUnsynchronized
			build(cfg)
			build(cfg)
		}
		for _, tr := range fig8Trs {
			cfg := periodic.Paper(20, tr*modelTc, x.seed)
			cfg.Start = periodic.StartSynchronized
			build(cfg)
			build(cfg)
		}
	},
}

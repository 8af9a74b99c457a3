package experiments

import (
	"reflect"
	"testing"
)

// TestBGPKInvariant: the path-vector scale scenario's observable outcome
// — every AS's flush timeline, the storm recorders, and the derived
// synchronization/burst/storm metrics — is identical for any partition
// count. This is the property that lets ext_bgp emit Jobs-independent
// artifacts. CI runs it under -race.
func TestBGPKInvariant(t *testing.T) {
	type snap struct {
		flushes [][]float64
		last    []float64
		count   []int
		sync    float64
		burst   float64
		storm   float64
		reach   float64
	}
	run := func(k int) snap {
		sc := BuildBGP(220, k, 5, "uniform", 9, 120, nil)
		sc.Run()
		return snap{
			flushes: sc.FlushTimes,
			last:    sc.StormLast,
			count:   sc.StormCount,
			sync:    sc.SyncClusterFraction(),
			burst:   sc.BurstRatio(),
			storm:   sc.StormLength(),
			reach:   sc.ReachFraction(sc.Origins[1]),
		}
	}
	ref := run(1)
	total := 0
	for _, ts := range ref.flushes {
		total += len(ts)
	}
	if total == 0 {
		t.Fatal("no flushes recorded; scenario is wired wrong")
	}
	if ref.storm <= 0 {
		t.Fatal("withdrawal caused no path exploration; probe is inert")
	}
	if ref.reach < 0.95 {
		t.Fatalf("only %.0f%% of ASes reach the second origin; policy routing broken", 100*ref.reach)
	}
	for _, k := range []int{2, 4} {
		got := run(k)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("k=%d: scenario outcome diverges from k=1", k)
		}
	}
}

// TestBGPMRAIDampsBursts: with synchronized starts and no jitter, a
// 30 s MRAI batches the per-peer update stream, so total flush count
// drops sharply versus MRAI off at the same size.
func TestBGPMRAIDampsBursts(t *testing.T) {
	flushes := func(mrai float64) int {
		sc := BuildBGP(150, 2, mrai, "none", 4, 90, nil)
		sc.Run()
		n := 0
		for _, ts := range sc.FlushTimes {
			n += len(ts)
		}
		return n
	}
	off, on := flushes(0), flushes(30)
	if on >= off {
		t.Fatalf("MRAI=30 produced %d flushes, MRAI=0 produced %d; batching is inert", on, off)
	}
}

// TestExtBGPSmoke runs the registered experiment at a toy size and
// checks the artifact contract: three series per jitter × MRAI arm,
// one note per arm × size, no dependence on Jobs.
func TestExtBGPSmoke(t *testing.T) {
	cfg := BGPConfig{
		Sizes:   []int{120, 200},
		MRAIs:   []float64{0, 5},
		Horizon: 90,
		Jobs:    2,
		Seed:    2,
	}
	res := ExtBGP(cfg)
	arms := len(bgpJitters) * len(cfg.MRAIs)
	if len(res.Series) != 3*arms {
		t.Fatalf("series = %d, want %d", len(res.Series), 3*arms)
	}
	for _, s := range res.Series {
		if s.Len() != len(cfg.Sizes) {
			t.Fatalf("series %q has %d points, want %d", s.Name, s.Len(), len(cfg.Sizes))
		}
	}
	if want := arms * len(cfg.Sizes); len(res.Notes) != want {
		t.Fatalf("notes = %d, want %d", len(res.Notes), want)
	}
	// The artifact must be identical whatever parallelism the host offers.
	cfg.Jobs = 1
	again := ExtBGP(cfg)
	if !reflect.DeepEqual(again, res) {
		t.Error("ext_bgp output depends on Jobs")
	}
}

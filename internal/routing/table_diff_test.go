package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"routesync/internal/netsim"
)

// TestTableDifferential drives the slice-backed Table and the map-keyed
// reference engine (table_ref_test.go) with the same seeded random
// programs — updates whose entries come sorted, shuffled or with
// repeated destinations, aging with and without hold-down, local
// routes, cold restarts and checkpoint save/restore — and requires the
// same ApplyResult lists, Expire lists, routes, exports and hold-downs
// after every step, and the same dump at the end.
func TestTableDifferential(t *testing.T) {
	const (
		infinity = 16
		universe = 24 // destinations 0..universe-1; 0 is the router itself
	)
	media := []netsim.Medium{&fakeMedium{"a"}, &fakeMedium{"b"}, &fakeMedium{"c"}}
	for seed := int64(0); seed < 100; seed++ {
		for _, hold := range []float64{0, 4} {
			t.Run(fmt.Sprintf("seed=%d/holddown=%v", seed, hold), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed))
				got, want := NewTable(infinity), newRefTable(infinity)
				got.SetHoldDown(hold)
				want.SetHoldDown(hold)
				got.SetLocal(0, 0)
				want.SetLocal(0, 0)
				var gotCk tableCkpt
				var wantCk refCkpt
				saved := false
				now := 0.0
				for step := 0; step < 300; step++ {
					now += rnd.ExpFloat64()
					op := ""
					switch p := rnd.Intn(100); {
					case p < 65:
						op = "apply"
						m := randomUpdate(rnd, universe, infinity)
						via := media[rnd.Intn(len(media))]
						cost := uint32(1 + rnd.Intn(3))
						g := got.ApplyCost(m, via, now, cost)
						w := want.ApplyCost(m, via, now, cost)
						if g.Changed != w.Changed || g.Worsened != w.Worsened ||
							!slices.Equal(g.Installed, w.Installed) || !slices.Equal(g.Unreachable, w.Unreachable) {
							t.Fatalf("step %d: ApplyCost(%+v, cost %d) = %+v, reference %+v", step, m, cost, g, w)
						}
					case p < 85:
						op = "expire"
						timeout := 2 + 6*rnd.Float64()
						gc := timeout + 6*rnd.Float64()
						gu, gd := got.Expire(now, timeout, gc)
						wu, wd := want.Expire(now, timeout, gc)
						if !slices.Equal(gu, wu) || !slices.Equal(gd, wd) {
							t.Fatalf("step %d: Expire = %v %v, reference %v %v", step, gu, gd, wu, wd)
						}
					case p < 88:
						op = "setlocal"
						self := netsim.NodeID(rnd.Intn(2) * rnd.Intn(universe))
						got.SetLocal(self, now)
						want.SetLocal(self, now)
					case p < 90:
						op = "reset"
						got.Reset()
						want.Reset()
					case p < 95:
						op = "save"
						got.saveInto(&gotCk)
						wantCk = want.save()
						saved = true
					default:
						if !saved {
							continue
						}
						op = "restore"
						got.restoreFrom(&gotCk)
						want.restore(wantCk)
					}
					if g, w := got.Routes(), want.Routes(); !slices.Equal(g, w) {
						t.Fatalf("step %d (%s): routes\n%+v\nreference\n%+v", step, op, g, w)
					}
					on := media[rnd.Intn(len(media))]
					split, poison := rnd.Intn(2) == 0, rnd.Intn(2) == 0
					if g, w := got.ExportInto(nil, on, split, poison), want.ExportInto(nil, on, split, poison); !slices.Equal(g, w) {
						t.Fatalf("step %d (%s): export (split %v, poison %v) = %v, reference %v", step, op, split, poison, g, w)
					}
					for d := netsim.NodeID(0); d < universe; d++ {
						if got.HeldDown(d, now) != want.HeldDown(d, now) {
							t.Fatalf("step %d (%s): HeldDown(%d) differs", step, op, d)
						}
					}
				}
				if g, w := got.String(), want.String(); g != w {
					t.Fatalf("table\n%s\nreference\n%s", g, w)
				}
			})
		}
	}
}

// randomUpdate builds one neighbor's update: entries in ascending
// destination order (as every router exports them), shuffled, or with
// repeated destinations, with metrics across the reachable range,
// infinity and the overflow edge.
func randomUpdate(rnd *rand.Rand, universe int, infinity uint32) Message {
	m := Message{Router: netsim.NodeID(1 + rnd.Intn(universe-1))}
	n := rnd.Intn(universe)
	dests := rnd.Perm(universe)[:n]
	switch rnd.Intn(3) {
	case 0:
		slices.Sort(dests)
	case 1: // shuffled: Perm order
	case 2:
		for i := range dests {
			if i > 0 && rnd.Intn(3) == 0 {
				dests[i] = dests[rnd.Intn(i)]
			}
		}
		if rnd.Intn(2) == 0 {
			slices.Sort(dests)
		}
	}
	for _, d := range dests {
		metric := uint32(rnd.Intn(int(infinity) + 2))
		if rnd.Intn(50) == 0 {
			metric = math.MaxUint32 - uint32(rnd.Intn(2))
		}
		m.Entries = append(m.Entries, Entry{Dest: netsim.NodeID(d), Metric: metric})
	}
	return m
}

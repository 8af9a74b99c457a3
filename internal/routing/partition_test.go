package routing

import (
	"fmt"
	"reflect"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

// routingPartitionSnap captures everything a full-protocol run computes:
// converged tables, agent counters, network counters, and the exact
// per-agent update-transmission timeline.
type routingPartitionSnap struct {
	tables   [][]routeVal
	stats    []Stats
	counters netsim.Counters
	sends    [][]float64
}

type routeVal struct {
	Dest    netsim.NodeID
	Metric  uint32
	NextHop netsim.NodeID
	Updated float64
}

// runRoutingAS runs RIP agents on a 4×4 two-level AS topology with a
// mid-run inter-domain link failure, partitioned into k logical processes
// (k == 0: unpartitioned), and snapshots the outcome.
func runRoutingAS(k int) routingPartitionSnap {
	const numAS, perAS = 4, 4
	n := netsim.NewNetwork(91)
	topo := n.BuildTwoLevelAS(netsim.TwoLevelASConfig{
		NumAS:        numAS,
		RoutersPerAS: perAS,
		IntraLink:    netsim.LinkConfig{Delay: 0.002, Bandwidth: 1.5e6, QueueCap: 16},
		InterLink:    netsim.LinkConfig{Delay: 0.012, Bandwidth: 1.5e6, QueueCap: 16},
		CPU:          &netsim.CPUConfig{Mode: netsim.CPUModeLegacy, InputQueueCap: 4},
		Chords:       1,
	})
	if k > 0 {
		n.Partition(k, netsim.OwnerByBlock(perAS, numAS, k))
	}

	total := numAS * perAS
	agents := make([]*Agent, 0, total)
	sends := make([][]float64, total)
	cfg := Config{
		Profile: RIP(),
		Jitter:  jitter.HalfSpread{Tp: 30},
		Costs:   DefaultCosts(),
		Seed:    7,
	}
	idx := 0
	for a := 0; a < numAS; a++ {
		for i := 0; i < perAS; i++ {
			ag := NewAgent(topo.Routers[a][i], cfg)
			j := idx
			// Each OnSend fires only on the owning logical process, so the
			// per-agent slices are goroutine-confined. The recorder is
			// append-only; its rollback checkpoint (exercised when the
			// suite is swept with ROUTESYNC_SYNC_MODE=optimistic) is a
			// length to truncate to.
			ag.OnSend = func(at float64, trig bool) { sends[j] = append(sends[j], at) }
			saved := 0
			n.RegisterCheckpoint(topo.Routers[a][i], netsim.CheckpointFuncs{
				Save:    func() { saved = len(sends[j]) },
				Restore: func() { sends[j] = sends[j][:saved] },
			})
			ag.Start(float64(idx) * 0.83)
			agents = append(agents, ag)
			idx++
		}
	}
	// Fail one backbone link as a scheduled keyed event: it fires in the
	// middle of a parallel window (not at a RunUntil barrier), which is
	// exactly the case the old direct SetDown mutation could not handle.
	backbone := linkBetween(topo.Gateways[1], topo.Gateways[2])
	backbone.FailAt(150.5)
	n.RunUntil(150)
	n.RunUntil(400)

	snap := routingPartitionSnap{counters: n.Counters(), sends: sends}
	for _, ag := range agents {
		snap.stats = append(snap.stats, ag.Stats())
		var tbl []routeVal
		for _, r := range ag.Table().Routes() {
			tbl = append(tbl, routeVal{Dest: r.Dest, Metric: r.Metric, NextHop: r.NextHop, Updated: r.Updated})
		}
		snap.tables = append(snap.tables, tbl)
	}
	return snap
}

func linkBetween(a, b *netsim.Node) *netsim.Link {
	for _, m := range a.Media() {
		if l, ok := m.(*netsim.Link); ok && l.Peer(a) == b {
			return l
		}
	}
	panic("no link between nodes")
}

// TestPartitionDeterminismRouting is the CI determinism gate: a full
// routing-protocol run (periodic updates, triggered updates after a
// backbone failure, CPU contention) is bit-identical across partition
// counts. Run under -race this also exercises the parallel engine for
// data races.
func TestPartitionDeterminismRouting(t *testing.T) {
	ref := runRoutingAS(0)
	var updatesIn uint64
	for _, s := range ref.stats {
		updatesIn += s.Received
	}
	if len(ref.sends[0]) == 0 || updatesIn == 0 {
		t.Fatalf("degenerate reference run: no routing traffic (%+v)", ref.counters)
	}
	// The failed backbone must have forced some route through metric
	// changes — make sure the scenario actually re-converged.
	sawTriggered := false
	for _, s := range ref.stats {
		if s.TriggeredSent > 0 {
			sawTriggered = true
		}
	}
	if !sawTriggered {
		t.Fatal("no triggered updates; the failure scenario is inert")
	}
	for _, k := range []int{1, 2, 4} {
		name := fmt.Sprintf("k=%d", k)
		got := runRoutingAS(k)
		if !reflect.DeepEqual(got.counters, ref.counters) {
			t.Errorf("%s: network counters diverge:\n got %+v\nwant %+v", name, got.counters, ref.counters)
		}
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Errorf("%s: agent stats diverge", name)
		}
		if !reflect.DeepEqual(got.tables, ref.tables) {
			t.Errorf("%s: routing tables diverge", name)
		}
		if !reflect.DeepEqual(got.sends, ref.sends) {
			t.Errorf("%s: send timelines diverge", name)
		}
	}
}

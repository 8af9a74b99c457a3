package netsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// partitionSnapshot is everything a run observes: global counters,
// per-node stats, and the exact delivery timeline at every sink.
type partitionSnapshot struct {
	counters   Counters
	nodeStats  []NodeStats
	deliveries map[NodeID][]deliveryRecord
}

type deliveryRecord struct {
	At  float64
	Src NodeID
	Seq int64
	ID  uint64
}

// buildScaleTopo builds a two-level AS topology with legacy CPUs and a
// CBR + bursty traffic pattern crossing domain boundaries, then runs it
// in several RunUntil slices (exercising leftover boundary events between
// calls). owner == nil runs unpartitioned.
func runScaleTopo(t *testing.T, k int, opts ...PartitionOption) partitionSnapshot {
	t.Helper()
	nw := NewNetwork(7)
	const numAS, perAS = 6, 5
	topo := nw.BuildTwoLevelAS(TwoLevelASConfig{
		NumAS:        numAS,
		RoutersPerAS: perAS,
		IntraLink:    LinkConfig{Delay: 0.002, Bandwidth: 10e6, QueueCap: 16},
		InterLink:    LinkConfig{Delay: 0.01, Bandwidth: 1.5e6, QueueCap: 16},
		CPU:          &CPUConfig{Mode: CPUModeLegacy, InputQueueCap: 4, ForwardCost: 0.0002},
		Chords:       2,
	})
	// A couple of measurement hosts on distinct domains.
	hostA := nw.NewNode("hostA", nil)
	hostB := nw.NewNode("hostB", nil)
	nw.Connect(hostA, topo.Routers[0][2], LinkConfig{Delay: 0.001})
	nw.Connect(hostB, topo.Routers[numAS-1][3], LinkConfig{Delay: 0.001})
	// Random per-arrival loss at two transit routers.
	topo.Routers[1][0].LossProb = 0.05
	topo.Routers[3][1].LossProb = 0.05
	nw.InstallStaticRoutes()

	if k > 0 {
		nw.Partition(k, OwnerByBlock(perAS, numAS, k), opts...)
	}

	// Mid-run faults through the keyed event layer: flap two backbone
	// links (both cross partition boundaries for k ≥ 2) and crash/restore
	// one transit router while traffic flows. Scheduled transitions must
	// land after Partition, like every runtime event.
	l01 := linkBetweenNodes(topo.Gateways[0], topo.Gateways[1])
	l01.FailAt(1.1)
	l01.RestoreAt(2.3)
	l01.FailAt(6.8)
	l01.RestoreAt(8.0)
	l34 := linkBetweenNodes(topo.Gateways[3], topo.Gateways[4])
	l34.FailAt(0.9)
	l34.RestoreAt(4.2)
	crash := topo.Routers[numAS-1][3] // hostB's access router: transit for all host↔host CBR
	crash.Schedule(3.3, "crash", func() { crash.SetFailed(true) })
	crash.Schedule(5.1, "restore", func() { crash.SetFailed(false) })

	// Per-sink slices, not a shared map: each OnDeliver closure fires on
	// its sink's logical process, so every slice stays goroutine-confined.
	sinks := []*Node{hostA, hostB, topo.Routers[2][2]}
	perSink := make([][]deliveryRecord, len(sinks))
	for si, sink := range sinks {
		si, sink := si, sink
		if sink.OnDeliver == nil {
			sink.OnDeliver = make(map[Kind]func(*Packet))
		}
		sink.OnDeliver[KindData] = func(p *Packet) {
			perSink[si] = append(perSink[si],
				deliveryRecord{At: sink.Now(), Src: p.Src, Seq: p.Seq, ID: p.ID})
		}
		// Append-only recorder: its optimistic-rollback checkpoint is a
		// length to truncate to (no-op in conservative runs).
		saved := 0
		nw.RegisterCheckpoint(sink, CheckpointFuncs{
			Save:    func() { saved = len(perSink[si]) },
			Restore: func() { perSink[si] = perSink[si][:saved] },
		})
	}

	// Traffic: CBR host↔host both ways, plus bursts from every gateway to
	// the far host, plus CPU occupancy storms stalling legacy forwarding.
	sendCBR := func(src *Node, dst NodeID, start, gap float64, count int, size int) {
		for i := 0; i < count; i++ {
			i := i
			src.Schedule(start+float64(i)*gap, "cbr", func() {
				pkt := nw.NewPacket(KindData, src.ID, dst, size)
				pkt.Seq = int64(i)
				nw.Inject(pkt)
			})
		}
	}
	sendCBR(hostA, hostB.ID, 0.05, 0.0201, 400, 180)
	sendCBR(hostB, hostA.ID, 0.07, 0.0301, 300, 180)
	sendCBR(hostB, topo.Routers[2][2].ID, 0.11, 0.0507, 150, 512)
	for a := 0; a < numAS; a++ {
		gw := topo.Gateways[a]
		sendCBR(gw, hostB.ID, 0.2+0.01*float64(a), 0.11, 60, 256)
	}
	for a := 0; a < numAS; a++ {
		for i := 0; i < perAS; i++ {
			r := topo.Routers[a][i]
			at := 0.5 + 0.37*float64(a*perAS+i)
			r.Schedule(at, "occupy", func() { r.CPU.Occupy(0.05) })
		}
	}

	// Advance in uneven slices so boundary events straddle RunUntil calls.
	for _, h := range []float64{0.3, 0.31, 2.5, 7, 12} {
		nw.RunUntil(h)
	}
	snap := partitionSnapshot{deliveries: make(map[NodeID][]deliveryRecord)}
	for si, sink := range sinks {
		snap.deliveries[sink.ID] = perSink[si]
	}
	snap.counters = nw.Counters()
	for _, nd := range nw.Nodes() {
		snap.nodeStats = append(snap.nodeStats, nd.Stats())
	}
	return snap
}

// TestPartitionDeterminism is the central property: for every partition
// count K, a run is bit-identical to the unpartitioned network — same
// counters, same per-node stats, same delivery timeline with the same
// packet ids.
func TestPartitionDeterminism(t *testing.T) {
	ref := runScaleTopo(t, 0)
	if ref.counters.Delivered == 0 || ref.counters.TotalDropped() == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	if ref.counters.Drops[DropLinkDown] == 0 || ref.counters.Drops[DropNodeDown] == 0 {
		t.Fatalf("fault machinery inert — no down-state drops: %+v", ref.counters.Drops)
	}
	found := false
	for _, rec := range ref.deliveries {
		if len(rec) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no deliveries recorded; test topology is wired wrong")
	}
	for _, k := range []int{1, 2, 3, 6} {
		name := fmt.Sprintf("k=%d", k)
		got := runScaleTopo(t, k)
		if !reflect.DeepEqual(got.counters, ref.counters) {
			t.Errorf("%s: counters diverge:\n got %+v\nwant %+v", name, got.counters, ref.counters)
		}
		if !reflect.DeepEqual(got.nodeStats, ref.nodeStats) {
			for i := range got.nodeStats {
				if !reflect.DeepEqual(got.nodeStats[i], ref.nodeStats[i]) {
					t.Errorf("%s: node %d stats diverge:\n got %+v\nwant %+v",
						name, i, got.nodeStats[i], ref.nodeStats[i])
				}
			}
		}
		if !reflect.DeepEqual(got.deliveries, ref.deliveries) {
			t.Errorf("%s: delivery timelines diverge", name)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	t.Run("lan-span", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.NewLAN([]*Node{a, b}, LANConfig{Delay: 0.001})
		defer expectPanic(t, "LAN spanning partitions")
		nw.Partition(2, func(id NodeID) int { return int(id) })
	})
	// Both modes need positive lookahead: every round's progress is
	// built on it.
	t.Run("zero-delay-boundary", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.Connect(a, b, LinkConfig{Delay: 0})
		defer expectPanic(t, "zero-delay boundary link")
		nw.Partition(2, func(id NodeID) int { return int(id) }, WithSyncMode(SyncConservative))
	})
	t.Run("zero-delay-boundary-optimistic-refused", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.Connect(a, b, LinkConfig{Delay: 0})
		defer expectPanic(t, "zero-delay boundary link in optimistic mode")
		nw.Partition(2, func(id NodeID) int { return int(id) }, WithSyncMode(SyncOptimistic))
	})
	t.Run("owner-range", func(t *testing.T) {
		nw := NewNetwork(1)
		nw.NewNode("a", nil)
		defer expectPanic(t, "owner out of range")
		nw.Partition(2, func(NodeID) int { return 7 })
	})
	t.Run("double-partition", func(t *testing.T) {
		nw := NewNetwork(1)
		nw.NewNode("a", nil)
		nw.Partition(1, func(NodeID) int { return 0 })
		defer expectPanic(t, "double partition")
		nw.Partition(1, func(NodeID) int { return 0 })
	})
	t.Run("pending-events", func(t *testing.T) {
		nw := NewNetwork(1)
		nd := nw.NewNode("a", nil)
		nd.Schedule(1, "x", func() {})
		defer expectPanic(t, "partition with pending events")
		nw.Partition(1, func(NodeID) int { return 0 })
	})
	t.Run("root-events-after-partition", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.Connect(a, b, LinkConfig{Delay: 0.01})
		nw.Partition(2, func(id NodeID) int { return int(id) })
		nw.Sim.Schedule(1, "rogue", func() {})
		defer expectPanic(t, "root events in partitioned run")
		nw.RunUntil(2)
	})
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s did not panic", what)
	}
}

func TestPartitionAccessors(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	c := nw.NewNode("c", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.25})
	nw.Connect(b, c, LinkConfig{Delay: 0.125})
	if nw.NumPartitions() != 0 || nw.PartitionOf(a.ID) != -1 {
		t.Fatal("unpartitioned accessors wrong")
	}
	if !math.IsInf(nw.Lookahead(), 0) && nw.Lookahead() != 0 {
		t.Fatalf("lookahead before partition = %v", nw.Lookahead())
	}
	nw.Partition(2, func(id NodeID) int {
		if id == c.ID {
			return 1
		}
		return 0
	})
	if nw.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d", nw.NumPartitions())
	}
	if nw.PartitionOf(a.ID) != 0 || nw.PartitionOf(c.ID) != 1 {
		t.Fatal("PartitionOf wrong")
	}
	// Only b—c crosses: lookahead is its delay.
	if nw.Lookahead() != 0.125 {
		t.Fatalf("Lookahead = %v, want 0.125", nw.Lookahead())
	}
	// Independent partitions: +Inf lookahead.
	nw2 := NewNetwork(2)
	nw2.NewNode("x", nil)
	nw2.NewNode("y", nil)
	nw2.Partition(2, func(id NodeID) int { return int(id) })
	if !math.IsInf(nw2.Lookahead(), 1) {
		t.Fatalf("disconnected lookahead = %v, want +Inf", nw2.Lookahead())
	}
	nw2.RunUntil(5)
	if nw2.Now() != 5 {
		t.Fatalf("Now = %v after RunUntil(5)", nw2.Now())
	}
}

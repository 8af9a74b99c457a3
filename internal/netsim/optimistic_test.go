package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"routesync/internal/rng"
)

// TestOptimisticDeterminism is the optimistic engine's central property:
// the speculate/rollback/replay rounds produce results bit-identical to
// the sequential (unpartitioned) run — same counters, same per-node
// stats, same delivery timeline with the same packet ids — for every
// partition count, on the same faulted, CPU-contended scale topology the
// conservative determinism test uses.
func TestOptimisticDeterminism(t *testing.T) {
	ref := runScaleTopo(t, 0)
	if ref.counters.Delivered == 0 || ref.counters.TotalDropped() == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	for _, k := range []int{1, 2, 4} {
		name := fmt.Sprintf("k=%d", k)
		got := runScaleTopo(t, k, WithSyncMode(SyncOptimistic))
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

// runZeroDelayCascade builds two hosts joined by a zero-delay link and
// drives same-instant cross-partition request/reply cascades through it:
// each delivery re-injects a response at the same timestamp until the
// packet's hop budget (carried in Seq) runs out. k == 0 runs
// unpartitioned; k == 2 must split the cascade across logical processes.
func runZeroDelayCascade(t *testing.T, k int) (records []deliveryRecord, stats SyncStats) {
	t.Helper()
	nw := NewNetwork(11)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0})
	nw.InstallStaticRoutes()
	if k > 0 {
		nw.Partition(k, func(id NodeID) int { return int(id) }, WithSyncMode(SyncOptimistic))
	}
	// Per-node record slices: each is appended (and rolled back) only on
	// its node's logical process.
	perNode := make([][]deliveryRecord, 2)
	bounce := func(ni int, self *Node, peer NodeID) func(*Packet) {
		return func(p *Packet) {
			perNode[ni] = append(perNode[ni], deliveryRecord{At: self.Now(), Src: p.Src, Seq: p.Seq, ID: p.ID})
			if p.Seq > 0 {
				reply := nw.NewPacket(KindData, self.ID, peer, 64)
				reply.Seq = p.Seq - 1
				nw.Inject(reply)
			}
		}
	}
	a.OnDeliver = map[Kind]func(*Packet){KindData: bounce(0, a, b.ID)}
	b.OnDeliver = map[Kind]func(*Packet){KindData: bounce(1, b, a.ID)}
	for ni, nd := range []*Node{a, b} {
		ni := ni
		saved := 0
		nw.RegisterCheckpoint(nd, CheckpointFuncs{
			Save:    func() { saved = len(perNode[ni]) },
			Restore: func() { perNode[ni] = perNode[ni][:saved] },
		})
	}
	// Cascades of varying depth, some sharing a start instant from both
	// ends, plus plain one-shot traffic between them.
	for i := 0; i < 20; i++ {
		i := i
		at := 0.1 + 0.13*float64(i)
		a.Schedule(at, "cascade", func() {
			pkt := nw.NewPacket(KindData, a.ID, b.ID, 64)
			pkt.Seq = int64(3 + i%5)
			nw.Inject(pkt)
		})
		b.Schedule(at, "cascade-b", func() {
			pkt := nw.NewPacket(KindData, b.ID, a.ID, 64)
			pkt.Seq = int64(i % 4)
			nw.Inject(pkt)
		})
	}
	for _, h := range []float64{1.3, 2.71, 4} {
		nw.RunUntil(h)
	}
	return append(append([]deliveryRecord{}, perNode[0]...), perNode[1]...), nw.SyncStats()
}

// TestOptimisticZeroDelay checks the serial-instant path: zero-delay
// boundary links are accepted in optimistic mode, same-instant cross-LP
// cascades execute in exact sequential order, and the serial-event
// counter proves that path actually ran.
func TestOptimisticZeroDelay(t *testing.T) {
	ref, _ := runZeroDelayCascade(t, 0)
	if len(ref) == 0 {
		t.Fatal("no deliveries; cascade is wired wrong")
	}
	got, stats := runZeroDelayCascade(t, 2)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("zero-delay cascade diverges: got %d records, want %d", len(got), len(ref))
	}
	if stats.SerialEvents == 0 {
		t.Fatal("no serial events: the zero-delay instants never exercised serialInstant")
	}
	if stats.Mode != SyncOptimistic {
		t.Fatalf("mode = %v", stats.Mode)
	}
}

// runStragglerTopo builds an adversarial straggler schedule: partition 0
// executes a dense local event stream (it speculates deep into every
// round), while partition 1 sends boundary packets at irregular times
// that land just behind partition 0's progress, forcing rollbacks round
// after round.
func runStragglerTopo(t *testing.T, k int, opts ...PartitionOption) (snap partitionSnapshot, stats SyncStats) {
	t.Helper()
	nw := NewNetwork(23)
	fast := nw.NewNode("fast", nil)
	straggler := nw.NewNode("straggler", nil)
	nw.Connect(fast, straggler, LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 32})
	nw.InstallStaticRoutes()
	if k > 0 {
		nw.Partition(k, func(id NodeID) int { return int(id) % k }, opts...)
	}

	var recs []deliveryRecord
	if fast.OnDeliver == nil {
		fast.OnDeliver = make(map[Kind]func(*Packet))
	}
	fast.OnDeliver[KindData] = func(p *Packet) {
		recs = append(recs, deliveryRecord{At: fast.Now(), Src: p.Src, Seq: p.Seq, ID: p.ID})
	}
	saved := 0
	nw.RegisterCheckpoint(fast, CheckpointFuncs{
		Save:    func() { saved = len(recs) },
		Restore: func() { recs = recs[:saved] },
	})

	// Dense local work on the fast LP: an event per millisecond. The
	// counter is rolled back with the LP, so its final value proves
	// speculative re-execution was exactly compensated.
	fastCount := 0
	for i := 0; i < 4000; i++ {
		fast.Schedule(0.001*float64(i), "dense", func() { fastCount++ })
	}
	savedCount := 0
	nw.RegisterCheckpoint(fast, CheckpointFuncs{
		Save:    func() { savedCount = fastCount },
		Restore: func() { fastCount = savedCount },
	})
	// Irregular straggler sends clustered at ~20 Hz with jitter: each
	// arrival lands 10 ms downstream, far behind the fast LP's lease.
	r := rng.New(99)
	at := 0.05
	seq := int64(0)
	for at < 3.9 {
		at += 0.03 + 0.04*r.Float64()
		when, s := at, seq
		straggler.Schedule(when, "straggle", func() {
			pkt := nw.NewPacket(KindData, straggler.ID, fast.ID, 128)
			pkt.Seq = s
			nw.Inject(pkt)
		})
		seq++
	}
	for _, h := range []float64{1.1, 4} {
		nw.RunUntil(h)
	}
	snap = partitionSnapshot{deliveries: map[NodeID][]deliveryRecord{fast.ID: recs}}
	snap.counters = nw.Counters()
	if fastCount != 4000 {
		t.Fatalf("dense events fired %d times, want 4000", fastCount)
	}
	return snap, nw.SyncStats()
}

// TestOptimisticRollbackBound drives the adversarial straggler schedule
// and checks the two lease-bound properties: rollbacks actually happen
// (the schedule is adversarial), and no rollback is ever deeper than the
// configured maximum lease — the bounded-rollback guarantee.
func TestOptimisticRollbackBound(t *testing.T) {
	ref, _ := runStragglerTopo(t, 0)
	if ref.counters.Delivered == 0 {
		t.Fatalf("degenerate reference: %+v", ref.counters)
	}
	cfg := OptimisticConfig{MaxLease: 0.5}
	got, stats := runStragglerTopo(t, 2, WithOptimistic(cfg))
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("straggler run diverges:\n got %+v\nwant %+v", got.counters, ref.counters)
	}
	if stats.Rollbacks == 0 {
		t.Fatal("adversarial schedule produced no rollbacks; the test is inert")
	}
	if stats.MaxRollbackDepth > cfg.MaxLease {
		t.Errorf("MaxRollbackDepth %.4f exceeds MaxLease %.4f", stats.MaxRollbackDepth, cfg.MaxLease)
	}
	if stats.MaxGVTLag > cfg.MaxLease {
		t.Errorf("MaxGVTLag %.4f exceeds MaxLease %.4f", stats.MaxGVTLag, cfg.MaxLease)
	}
	if stats.TotalRollbackDepth < stats.MaxRollbackDepth {
		t.Errorf("TotalRollbackDepth %.4f < MaxRollbackDepth %.4f", stats.TotalRollbackDepth, stats.MaxRollbackDepth)
	}
}

// TestOptimisticStats sanity-checks the stats surface on a clean run:
// conservative runs report windows but never rollbacks, and the
// sync-mode accessors reflect the option.
func TestOptimisticStats(t *testing.T) {
	snap, stats := runStragglerTopo(t, 2, WithSyncMode(SyncConservative))
	if snap.counters.Delivered == 0 {
		t.Fatal("degenerate run")
	}
	if stats.Mode != SyncConservative {
		t.Fatalf("mode = %v", stats.Mode)
	}
	if stats.Windows == 0 {
		t.Fatal("conservative run reported no windows")
	}
	if stats.Rollbacks != 0 || stats.SerialEvents != 0 {
		t.Fatalf("conservative run reported optimistic work: %+v", stats)
	}
}

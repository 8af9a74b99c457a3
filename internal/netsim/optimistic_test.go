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

// runStragglerTopo builds an adversarial straggler schedule: partition 0
// executes a dense local event stream (it speculates deep into every
// round), while partition 1 sends boundary packets at irregular times
// that land just behind partition 0's progress, forcing rollbacks round
// after round. The link delay (the lookahead) is small enough that the
// lease cap, leaseMaxL·stragglerDelay = 0.5 s, lies well inside the 4 s
// run, so the cap binds.
func runStragglerTopo(t *testing.T, k int, opts ...PartitionOption) (snap partitionSnapshot, stats SyncStats) {
	t.Helper()
	nw := NewNetwork(23)
	fast := nw.NewNode("fast", nil)
	straggler := nw.NewNode("straggler", nil)
	nw.Connect(fast, straggler, LinkConfig{Delay: stragglerDelay, Bandwidth: 10e6, QueueCap: 32})
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
	// arrival lands 0.1 ms downstream, far behind the fast LP's lease.
	// The quiet gap in [1.3, 2.8) lets the leases grow to their cap, so
	// the first send after it rolls the fast LP back nearly a full cap.
	r := rng.New(99)
	at := 0.05
	seq := int64(0)
	for at < 3.9 {
		at += 0.03 + 0.04*r.Float64()
		if at >= 1.3 && at < 2.8 {
			continue
		}
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

// stragglerDelay is the straggler topology's only boundary link delay.
const stragglerDelay = 0.0001

// TestOptimisticRollbackBound drives the adversarial straggler schedule
// and checks the two lease-bound properties: rollbacks actually happen
// (the schedule is adversarial), and no rollback is ever deeper than the
// lease cap — the bounded-rollback guarantee.
func TestOptimisticRollbackBound(t *testing.T) {
	ref, _ := runStragglerTopo(t, 0)
	if ref.counters.Delivered == 0 {
		t.Fatalf("degenerate reference: %+v", ref.counters)
	}
	got, stats := runStragglerTopo(t, 2, WithSyncMode(SyncOptimistic))
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("straggler run diverges:\n got %+v\nwant %+v", got.counters, ref.counters)
	}
	if stats.Rollbacks == 0 {
		t.Fatal("adversarial schedule produced no rollbacks; the test is inert")
	}
	maxLease := leaseMaxL * stragglerDelay
	t.Logf("rollbacks=%d MaxRollbackDepth=%.4f MaxGVTLag=%.4f lease cap=%.4f",
		stats.Rollbacks, stats.MaxRollbackDepth, stats.MaxGVTLag, maxLease)
	if stats.MaxRollbackDepth > maxLease {
		t.Errorf("MaxRollbackDepth %.4f exceeds the lease cap %.4f", stats.MaxRollbackDepth, maxLease)
	}
	if stats.MaxGVTLag > maxLease {
		t.Errorf("MaxGVTLag %.4f exceeds the lease cap %.4f", stats.MaxGVTLag, maxLease)
	}
	if stats.MaxRollbackDepth < maxLease/2 {
		t.Errorf("MaxRollbackDepth %.4f < half the lease cap %.4f; speculation never came near the cap", stats.MaxRollbackDepth, maxLease)
	}
	if stats.TotalRollbackDepth < stats.MaxRollbackDepth {
		t.Errorf("TotalRollbackDepth %.4f < MaxRollbackDepth %.4f", stats.TotalRollbackDepth, stats.MaxRollbackDepth)
	}
}

// TestOptimisticStats sanity-checks the stats surface on a clean run:
// conservative runs share the optimistic round loop but report windows
// and never any rollback, rollback depth or run past the commit bound,
// and the sync-mode accessors reflect the option.
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
	if stats.Rollbacks != 0 || stats.MaxGVTLag != 0 || stats.MaxRollbackDepth != 0 || stats.TotalRollbackDepth != 0 {
		t.Fatalf("conservative run reported optimistic work: %+v", stats)
	}
}

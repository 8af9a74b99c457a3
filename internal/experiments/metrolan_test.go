package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"routesync/internal/netsim"
	"routesync/internal/routing"
	"routesync/internal/workload"
)

// metroLANSnap captures everything the metro-LAN scenario computes that a
// user could observe: the end-to-end ping result, network counters,
// per-agent protocol statistics and routing tables.
type metroLANSnap struct {
	ping     workload.PingResult
	counters netsim.Counters
	stats    []routing.Stats
	tables   []string
}

func runMetroLAN(seg, per, k int, horizon float64, opts ...netsim.PartitionOption) (metroLANSnap, netsim.SyncStats) {
	sc := BuildMetroLAN(seg, per, k, 3, horizon, nil, opts...)
	sc.Run()
	snap := metroLANSnap{ping: sc.Pinger.Result(), counters: sc.Net.Counters()}
	// Lost pings record NaN RTTs, which reflect.DeepEqual treats as
	// unequal to themselves; map them to a comparable sentinel.
	for i, v := range snap.ping.RTTs {
		if math.IsNaN(v) {
			snap.ping.RTTs[i] = -1
		}
	}
	for _, ag := range sc.Agents {
		snap.stats = append(snap.stats, ag.Stats())
		snap.tables = append(snap.tables, ag.Table().String())
	}
	return snap, sc.Net.SyncStats()
}

// TestMetroLANKInvariant is the determinism gate for the low-lookahead
// scenario: conservative and optimistic runs at every partition count are
// bit-identical to the sequential reference — ping RTT timeline, network
// counters, every agent's protocol statistics and routing table.
func TestMetroLANKInvariant(t *testing.T) {
	const seg, per = 8, 6
	const horizon = 15.0
	ref, _ := runMetroLAN(seg, per, 1, horizon)
	if ref.counters.Delivered == 0 || ref.ping.Sent == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	if ref.ping.Lost() == ref.ping.Sent {
		t.Fatal("all pings lost; the bridged topology never converged")
	}
	for _, mode := range []netsim.SyncMode{netsim.SyncConservative, netsim.SyncOptimistic} {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", mode, k), func(t *testing.T) {
				got, stats := runMetroLAN(seg, per, k, horizon, netsim.WithSyncMode(mode))
				if stats.Mode != mode {
					t.Fatalf("mode = %v", stats.Mode)
				}
				if !reflect.DeepEqual(got.counters, ref.counters) {
					t.Errorf("counters diverge:\n got %+v\nwant %+v", got.counters, ref.counters)
				}
				if !reflect.DeepEqual(got.ping, ref.ping) {
					t.Errorf("ping results diverge:\n got %+v\nwant %+v", got.ping, ref.ping)
				}
				if !reflect.DeepEqual(got.stats, ref.stats) {
					t.Error("agent stats diverge")
				}
				for i := range ref.tables {
					if got.tables[i] != ref.tables[i] {
						t.Fatalf("agent %d routing table diverges:\n got %s\nwant %s", i, got.tables[i], ref.tables[i])
					}
				}
			})
		}
	}
}

// TestMetroLANInlineWindows pins how often the conservative coordinator
// runs a window itself: on the metro LAN, traffic rarely crosses a
// bridge, so in most 100 µs windows only one LP has an event and the
// workers are not woken. The floor sits below the share measured when
// coordinator-run windows were introduced (480 of 499 windows, 96.2%),
// so a change that stops recognizing single-LP windows fails here.
func TestMetroLANInlineWindows(t *testing.T) {
	_, stats := runMetroLAN(8, 6, 2, 15, netsim.WithSyncMode(netsim.SyncConservative))
	if stats.Windows == 0 || stats.InlineWindows > stats.Windows {
		t.Fatalf("InlineWindows = %d, Windows = %d", stats.InlineWindows, stats.Windows)
	}
	share := float64(stats.InlineWindows) / float64(stats.Windows)
	t.Logf("windows=%d inline=%d share=%.4f", stats.Windows, stats.InlineWindows, share)
	if share < 0.9 {
		t.Errorf("inline window share %.4f < 0.9", share)
	}
}

// TestMetroLANWindowRatio pins the performance property the optimistic
// engine exists for: on the low-lookahead metro-LAN topology, where the
// conservative window (the 100 µs bridge delay) is four orders of
// magnitude below the traffic spacing, the optimistic engine commits the
// same run in at least 10× fewer synchronization rounds at K=4, while
// actually exercising its rollback machinery.
func TestMetroLANWindowRatio(t *testing.T) {
	const seg, per = 16, 6
	const horizon = 20.0
	cons, cstats := runMetroLAN(seg, per, 4, horizon, netsim.WithSyncMode(netsim.SyncConservative))
	opt, ostats := runMetroLAN(seg, per, 4, horizon, netsim.WithSyncMode(netsim.SyncOptimistic))
	if !reflect.DeepEqual(opt.counters, cons.counters) {
		t.Fatalf("modes diverge:\n got %+v\nwant %+v", opt.counters, cons.counters)
	}
	if cstats.Windows == 0 || ostats.Windows == 0 {
		t.Fatalf("degenerate window counts: conservative=%d optimistic=%d", cstats.Windows, ostats.Windows)
	}
	ratio := float64(cstats.Windows) / float64(ostats.Windows)
	t.Logf("conservative windows=%d optimistic windows=%d ratio=%.1f rollbacks=%d",
		cstats.Windows, ostats.Windows, ratio, ostats.Rollbacks)
	if ratio < 10 {
		t.Errorf("window ratio %.1f < 10 (conservative=%d, optimistic=%d)",
			ratio, cstats.Windows, ostats.Windows)
	}
	if ostats.Rollbacks == 0 {
		t.Error("optimistic run had no rollbacks; the scenario no longer stresses speculation")
	}
	if ostats.MaxGVTLag <= 0 {
		t.Errorf("MaxGVTLag = %v, want > 0", ostats.MaxGVTLag)
	}
}

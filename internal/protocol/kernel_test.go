package protocol

import (
	"strings"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

// testHooks returns a minimal valid hook set; fire/process default to
// no-ops the caller can override before New.
func testHooks() Hooks[int] {
	return Hooks[int]{
		Fire:    func() {},
		Receive: func(pkt *netsim.Packet, via netsim.Medium) {},
		Process: func(pkt *netsim.Packet, via netsim.Medium, aux int) {},
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestKernelNewValidation(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", nil)
	base := Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}

	mustPanic(t, "nil node", func() {
		cfg := base
		cfg.Node = nil
		New(cfg, testHooks())
	})
	mustPanic(t, "nil jitter", func() {
		cfg := base
		cfg.Jitter = nil
		New(cfg, testHooks())
	})
	mustPanic(t, "missing Fire", func() {
		h := testHooks()
		h.Fire = nil
		New(base, h)
	})
	mustPanic(t, "missing Receive", func() {
		h := testHooks()
		h.Receive = nil
		New(base, h)
	})
	mustPanic(t, "missing Process", func() {
		h := testHooks()
		h.Process = nil
		New(base, h)
	})
	mustPanic(t, "sweep interval without hook", func() {
		cfg := base
		cfg.SweepEvery = 30
		New(cfg, testHooks())
	})

	k := New(base, testHooks())
	mustPanic(t, "negative start offset", func() { k.StartTimer(-1) })
	mustPanic(t, "restart running agent", func() { k.Restart() })
}

// TestKernelRefusesOptimisticPartition: a family without Save/Restore
// hooks cannot roll back, so New refuses a network partitioned in
// optimistic mode, naming the family; with the hooks, or on a
// conservative partition, it builds.
func TestKernelRefusesOptimisticPartition(t *testing.T) {
	build := func(mode netsim.SyncMode) Config {
		net := netsim.NewNetwork(1)
		a, b := net.NewNode("a", nil), net.NewNode("b", nil)
		net.Connect(a, b, netsim.LinkConfig{Delay: 0.01})
		net.Partition(2, func(id netsim.NodeID) int { return int(id) }, netsim.WithSyncMode(mode))
		return Config{Name: "fam", Node: a, Jitter: jitter.None{Tp: 10}}
	}
	New(build(netsim.SyncConservative), testHooks())
	h := testHooks()
	h.Save, h.Restore = func() {}, func() {}
	New(build(netsim.SyncOptimistic), h)
	saveOnly, restoreOnly := testHooks(), testHooks()
	saveOnly.Save = func() {}
	restoreOnly.Restore = func() {}
	for name, h := range map[string]Hooks[int]{"no Restore": saveOnly, "no Save": restoreOnly} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "fam:") || !strings.Contains(msg, "optimistic") {
					t.Errorf("%s: New on an optimistic partition panicked with %q, want a refusal naming the family and optimistic mode", name, msg)
				}
			}()
			New(build(netsim.SyncOptimistic), h)
		}()
	}
}

func TestFIFOHeadReuse(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 3; i++ {
		f.Push(i)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	for i := 0; i < 3; i++ {
		if got := f.Pop(); got != i {
			t.Fatalf("Pop #%d = %d, want %d", i, got, i)
		}
	}
	// Draining must reset the head so the backing array is reused from
	// index 0 — the property that makes steady-state cycles allocation-free.
	if f.head != 0 || len(f.buf) != 0 || cap(f.buf) == 0 {
		t.Fatalf("after drain: head=%d len=%d cap=%d, want head 0, len 0, cap kept",
			f.head, len(f.buf), cap(f.buf))
	}

	// Warm to the high-water mark, then steady-state push/pop cycles
	// must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3; i++ {
			f.Push(i)
		}
		for i := 0; i < 3; i++ {
			f.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f/op, want 0", allocs)
	}

	mustPanic(t, "pop empty", func() { f.Pop() })
}

// newTimerKernel builds a kernel whose Fire records expiry times and
// charges cost seconds of preparation CPU.
func newTimerKernel(mode TimerMode, tp, cost float64) (*netsim.Network, *Kernel[int], *[]float64) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy, InputQueueCap: 4})
	fires := &[]float64{}
	var k *Kernel[int]
	h := testHooks()
	h.Fire = func() {
		*fires = append(*fires, node.Now())
		k.FinishSend(cost, true)
	}
	k = New(Config{
		Name:       "test",
		Node:       node,
		Jitter:     jitter.None{Tp: tp},
		Mode:       mode,
		TimerLabel: "test-timer",
		RearmLabel: "test-rearm",
	}, h)
	return net, k, fires
}

func TestKernelTimerModes(t *testing.T) {
	// Tp=10, preparation cost 0.5, first expiry at t=1. AfterProcessing
	// re-arms from the CPU drain (1.5), OnExpiry from the expiry (1.0):
	// the half-second processing drift accumulates only in the first mode
	// — the paper's §3 coupling vs the RFC 1058 fixed-phase suggestion.
	cases := []struct {
		mode TimerMode
		want []float64
	}{
		{TimerResetAfterProcessing, []float64{1, 11.5, 22}},
		{TimerResetOnExpiry, []float64{1, 11, 21}},
	}
	for _, c := range cases {
		net, k, fires := newTimerKernel(c.mode, 10, 0.5)
		k.StartTimer(1)
		net.RunUntil(25)
		if len(*fires) != len(c.want) {
			t.Fatalf("mode %d: %d fires %v, want %d", c.mode, len(*fires), *fires, len(c.want))
		}
		for i, want := range c.want {
			if got := (*fires)[i]; got != want {
				t.Fatalf("mode %d: fire #%d at %g, want %g", c.mode, i, got, want)
			}
		}
		if k.TimerResets() == 0 {
			t.Fatalf("mode %d: TimerResets not counted", c.mode)
		}
	}
}

func TestKernelTimerOnExpiryClampsToNow(t *testing.T) {
	// When processing outlasts the period (cost 1.0 > Tp 0.2), the
	// expiry-relative arm time lands in the past and must clamp to now:
	// the next fire happens the instant the CPU drains, not before.
	net, k, fires := newTimerKernel(TimerResetOnExpiry, 0.2, 1.0)
	k.StartTimer(1)
	net.RunUntil(2.5)
	if len(*fires) < 2 {
		t.Fatalf("fires = %v, want at least 2", *fires)
	}
	if (*fires)[1] != 2.0 {
		t.Fatalf("clamped fire at %g, want 2.0 (CPU drain)", (*fires)[1])
	}
}

func TestKernelStopInvalidatesPendingWork(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy, InputQueueCap: 4})
	processed := false
	h := testHooks()
	h.Process = func(pkt *netsim.Packet, via netsim.Medium, aux int) { processed = true }
	k := New(Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}, h)

	pkt := net.NewPacket(netsim.KindRouting, node.ID, node.ID, 64)
	node.Schedule(1, "test-arrival", func() { k.Process(pkt, nil, 7, 0.5) })
	node.Schedule(1.2, "test-stop", func() { k.Stop() })
	net.RunUntil(5)

	// The CPU completion at t=1.5 ran under a stale generation: the hook
	// must be skipped, but the parked packet still released.
	if processed {
		t.Fatal("stale CPU completion reached the Process hook after Stop")
	}
	if k.PendingPackets() != 0 {
		t.Fatalf("PendingPackets = %d after drain, want 0", k.PendingPackets())
	}
	if net.LivePackets() != 0 {
		t.Fatalf("LivePackets = %d, want 0 (kernel must release stale packets)", net.LivePackets())
	}
	if !k.Stopped() || k.Gen() != 1 {
		t.Fatalf("Stopped=%v Gen=%d, want stopped at generation 1", k.Stopped(), k.Gen())
	}
}

func TestKernelProcessSynchronousWithoutCPU(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("h0", nil)
	var gotAux int
	h := testHooks()
	h.Process = func(pkt *netsim.Packet, via netsim.Medium, aux int) { gotAux = aux }
	k := New(Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}, h)

	pkt := net.NewPacket(netsim.KindRouting, node.ID, node.ID, 64)
	k.Process(pkt, nil, 42, 0.5)
	if gotAux != 42 {
		t.Fatalf("aux = %d, want 42 (synchronous path without CPU)", gotAux)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("LivePackets = %d, want 0 after synchronous Process", net.LivePackets())
	}
}

func TestKernelCrashRestart(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy, InputQueueCap: 4})
	resets, restarts := 0, 0
	h := testHooks()
	h.ResetVolatile = func() { resets++ }
	h.Restarted = func() { restarts++ }
	k := New(Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}, h)
	k.StartTimer(0)
	node.FIB[99] = netsim.Egress{}

	k.Crash()
	if len(node.FIB) != 0 {
		t.Fatalf("FIB has %d entries after Crash, want 0", len(node.FIB))
	}
	if resets != 1 {
		t.Fatalf("ResetVolatile called %d times, want 1", resets)
	}
	if !node.Failed() || !k.Stopped() {
		t.Fatalf("Failed=%v Stopped=%v after Crash, want both true", node.Failed(), k.Stopped())
	}
	if node.OnRouting != nil {
		t.Fatal("receive hook still installed after Crash")
	}

	k.Restart()
	if node.Failed() || k.Stopped() {
		t.Fatalf("Failed=%v Stopped=%v after Restart, want both false", node.Failed(), k.Stopped())
	}
	if restarts != 1 {
		t.Fatalf("Restarted called %d times, want 1", restarts)
	}
	if node.OnRouting == nil {
		t.Fatal("receive hook not reinstalled by Restart")
	}
	// The new life runs under a fresh generation.
	if k.Gen() != 1 {
		t.Fatalf("Gen = %d after one reboot, want 1", k.Gen())
	}
}

package pathvector

import (
	"strings"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

// buildChain wires AS0 — AS1 — ... — AS(k−1) over point-to-point links
// with AS(i+1) the customer of AS(i) — a provider chain hanging off
// AS0 — all ASes originating, and returns the network and agents.
func buildChain(t *testing.T, k int, cfg Config) (*netsim.Network, []*Agent) {
	t.Helper()
	net := netsim.NewNetwork(cfg.Seed + 4000)
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("as", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	}
	links := make([]*netsim.Link, k-1)
	for i := 0; i+1 < k; i++ {
		links[i] = net.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64})
	}
	origins := make([]netsim.NodeID, k)
	for i, nd := range nodes {
		origins[i] = nd.ID
	}
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		c := cfg
		c.Origins = origins
		// AS(i+1) is AS(i)'s customer: downstream links face customers,
		// upstream links face providers.
		if i > 0 {
			c.Peers = append(c.Peers, PeerConfig{Link: links[i-1], Rel: RelProvider})
		}
		if i+1 < k {
			c.Peers = append(c.Peers, PeerConfig{Link: links[i], Rel: RelCustomer})
		}
		c.Seed = cfg.Seed*31 + int64(nd.ID)
		agents[i] = NewAgent(nd, c)
	}
	for i, a := range agents {
		a.Start(0.5 + 0.1*float64(i))
	}
	return net, agents
}

// TestAgentRefusesOptimisticPartition: an agent cannot be built on a
// network partitioned in optimistic mode, since its adj-RIB-in and MRAI
// state would not roll back; the conservative mode still accepts it.
func TestAgentRefusesOptimisticPartition(t *testing.T) {
	build := func(mode netsim.SyncMode) (*netsim.Node, Config) {
		net := netsim.NewNetwork(8)
		a, b := net.NewNode("a", nil), net.NewNode("b", nil)
		link := net.Connect(a, b, netsim.LinkConfig{Delay: 0.01})
		net.Partition(2, func(id netsim.NodeID) int { return int(id) }, netsim.WithSyncMode(mode))
		cfg := defaultCfg()
		cfg.Origins = []netsim.NodeID{a.ID}
		cfg.Peers = []PeerConfig{{Link: link, Rel: RelCustomer}}
		return a, cfg
	}
	NewAgent(build(netsim.SyncConservative))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "optimistic") {
			t.Fatalf("NewAgent on an optimistic partition panicked with %q, want a refusal naming optimistic mode", msg)
		}
	}()
	NewAgent(build(netsim.SyncOptimistic))
}

func defaultCfg() Config {
	return Config{
		RefreshPeriod: 30,
		Jitter:        jitter.HalfSpread{Tp: 30},
		PrepareCost:   0.002,
		ProcessCost:   0.001,
		Seed:          7,
	}
}

func TestChainConvergence(t *testing.T) {
	net, agents := buildChain(t, 6, defaultCfg())
	net.RunUntil(120)
	for i, a := range agents {
		for j, b := range agents {
			ok, plen := a.Reachable(b.Node().ID)
			if !ok {
				t.Fatalf("AS%d cannot reach AS%d", i, j)
			}
			want := i - j
			if want < 0 {
				want = -want
			}
			if plen != want {
				t.Fatalf("AS%d path length to AS%d = %d, want %d", i, j, plen, want)
			}
		}
	}
	// The best path toward the far end walks the chain.
	path := agents[0].BestPath(nil, agents[5].Node().ID)
	for h, id := range path {
		if id != agents[h+1].Node().ID {
			t.Fatalf("hop %d of AS0→AS5 path = %d, want %d", h, id, agents[h+1].Node().ID)
		}
	}
}

// TestGaoRexfordValley checks that peer-learned routes are not exported
// to peers or providers: two stubs hanging off two peered cores must
// reach each other through the peering, but a third core peered with
// both must not receive transit routes across the valley.
func TestGaoRexfordValley(t *testing.T) {
	cfg := defaultCfg()
	net := netsim.NewNetwork(99)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	coreA := net.NewNode("coreA", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	coreB := net.NewNode("coreB", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	coreC := net.NewNode("coreC", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	stubA := net.NewNode("stubA", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	stubB := net.NewNode("stubB", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	lAB := net.Connect(coreA, coreB, lc) // peer—peer
	lAC := net.Connect(coreA, coreC, lc) // peer—peer
	lBC := net.Connect(coreB, coreC, lc) // peer—peer
	lAs := net.Connect(coreA, stubA, lc) // provider—customer
	lBs := net.Connect(coreB, stubB, lc) // provider—customer

	origins := []netsim.NodeID{stubA.ID, stubB.ID}
	mk := func(nd *netsim.Node, peers []PeerConfig, seed int64) *Agent {
		c := cfg
		c.Origins = origins
		c.Peers = peers
		c.Seed = seed
		return NewAgent(nd, c)
	}
	agents := []*Agent{
		mk(coreA, []PeerConfig{{Link: lAB, Rel: RelPeer}, {Link: lAC, Rel: RelPeer}, {Link: lAs, Rel: RelCustomer}}, 1),
		mk(coreB, []PeerConfig{{Link: lAB, Rel: RelPeer}, {Link: lBC, Rel: RelPeer}, {Link: lBs, Rel: RelCustomer}}, 2),
		mk(coreC, []PeerConfig{{Link: lAC, Rel: RelPeer}, {Link: lBC, Rel: RelPeer}}, 3),
		mk(stubA, []PeerConfig{{Link: lAs, Rel: RelProvider}}, 4),
		mk(stubB, []PeerConfig{{Link: lBs, Rel: RelProvider}}, 5),
	}
	for i, a := range agents {
		a.Start(0.5 + 0.1*float64(i))
	}
	net.RunUntil(120)

	// The stubs reach each other via the peering (stub → provider → peer
	// provider → stub: 3 AS hops).
	sA, sB := agents[3], agents[4]
	if ok, plen := sA.Reachable(stubB.ID); !ok || plen != 3 {
		t.Fatalf("stubA → stubB reachable=%v len=%d, want true/3", ok, plen)
	}
	if ok, plen := sB.Reachable(stubA.ID); !ok || plen != 3 {
		t.Fatalf("stubB → stubA reachable=%v len=%d, want true/3", ok, plen)
	}
	// Core C hears both stubs from its peers A and B — customer routes
	// export to peers — but must never have been offered the valley path
	// (e.g. stubA via B: A would have to export a peer-learned route to
	// peer B first). Check C's best paths go straight through the owning
	// provider.
	cC := agents[2]
	pA := cC.BestPath(nil, stubA.ID)
	if len(pA) != 2 || pA[0] != coreA.ID {
		t.Fatalf("coreC best path to stubA = %v, want [coreA stubA]", pA)
	}
	pB := cC.BestPath(nil, stubB.ID)
	if len(pB) != 2 || pB[0] != coreB.ID {
		t.Fatalf("coreC best path to stubB = %v, want [coreB stubB]", pB)
	}
}

// TestLocalPrefOverridesPathLength: a customer-learned route must beat a
// shorter peer-learned route.
func TestLocalPrefOverridesPathLength(t *testing.T) {
	cfg := defaultCfg()
	net := netsim.NewNetwork(17)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	// origin ←customer— mid ←customer— self —peer→ origin (direct).
	self := net.NewNode("self", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	mid := net.NewNode("mid", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	origin := net.NewNode("origin", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	lSM := net.Connect(self, mid, lc)    // mid is self's customer
	lMO := net.Connect(mid, origin, lc)  // origin is mid's customer
	lSO := net.Connect(self, origin, lc) // self—origin peering

	origins := []netsim.NodeID{origin.ID}
	mk := func(nd *netsim.Node, peers []PeerConfig, seed int64) *Agent {
		c := cfg
		c.Origins = origins
		c.Peers = peers
		c.Seed = seed
		return NewAgent(nd, c)
	}
	aSelf := mk(self, []PeerConfig{{Link: lSM, Rel: RelCustomer}, {Link: lSO, Rel: RelPeer}}, 1)
	aMid := mk(mid, []PeerConfig{{Link: lSM, Rel: RelProvider}, {Link: lMO, Rel: RelCustomer}}, 2)
	aOrig := mk(origin, []PeerConfig{{Link: lMO, Rel: RelProvider}, {Link: lSO, Rel: RelPeer}}, 3)
	for i, a := range []*Agent{aSelf, aMid, aOrig} {
		a.Start(0.5 + 0.1*float64(i))
	}
	net.RunUntil(120)

	p := aSelf.BestPath(nil, origin.ID)
	if len(p) != 2 || p[0] != mid.ID {
		t.Fatalf("self's best path = %v, want the 2-hop customer route [mid origin]", p)
	}
}

// TestWithdrawPropagates: withdrawing the origin's prefix must make it
// unreachable everywhere, and re-announcing must restore it.
func TestWithdrawPropagates(t *testing.T) {
	net, agents := buildChain(t, 5, defaultCfg())
	net.RunUntil(100)
	last := agents[4]
	if ok, _ := agents[0].Reachable(last.Node().ID); !ok {
		t.Fatal("not converged before withdraw")
	}
	last.Node().Schedule(100, "withdraw", func() { last.WithdrawLocal() })
	net.RunUntil(150)
	for i := 0; i < 4; i++ {
		if ok, _ := agents[i].Reachable(last.Node().ID); ok {
			t.Fatalf("AS%d still reaches the withdrawn prefix", i)
		}
	}
	last.Node().Schedule(150, "announce", func() { last.AnnounceLocal() })
	net.RunUntil(220)
	for i := 0; i < 4; i++ {
		if ok, _ := agents[i].Reachable(last.Node().ID); !ok {
			t.Fatalf("AS%d did not relearn the re-announced prefix", i)
		}
	}
}

// TestLoopRejection: on a triangle of providers every AS must reject
// paths containing itself; convergence must still be loop-free with
// direct (1-hop) routes winning.
func TestLoopRejection(t *testing.T) {
	cfg := defaultCfg()
	net := netsim.NewNetwork(5)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	nodes := make([]*netsim.Node, 3)
	for i := range nodes {
		nodes[i] = net.NewNode("as", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	}
	l01 := net.Connect(nodes[0], nodes[1], lc)
	l12 := net.Connect(nodes[1], nodes[2], lc)
	l02 := net.Connect(nodes[0], nodes[2], lc)
	origins := []netsim.NodeID{nodes[0].ID, nodes[1].ID, nodes[2].ID}
	// All peers of each other: every route is peer-learned, so nothing is
	// re-exported (Gao–Rexford) — the loop check still guards the direct
	// advertisements that include the receiver.
	peersOf := [][]PeerConfig{
		{{Link: l01, Rel: RelPeer}, {Link: l02, Rel: RelPeer}},
		{{Link: l01, Rel: RelPeer}, {Link: l12, Rel: RelPeer}},
		{{Link: l02, Rel: RelPeer}, {Link: l12, Rel: RelPeer}},
	}
	agents := make([]*Agent, 3)
	for i, nd := range nodes {
		c := cfg
		c.Origins = origins
		c.Peers = peersOf[i]
		c.Seed = int64(i + 1)
		agents[i] = NewAgent(nd, c)
		agents[i].Start(0.5 + 0.1*float64(i))
	}
	net.RunUntil(100)
	for i, a := range agents {
		for j, b := range agents {
			if i == j {
				continue
			}
			ok, plen := a.Reachable(b.Node().ID)
			if !ok || plen != 1 {
				t.Fatalf("AS%d → AS%d reachable=%v len=%d, want direct", i, j, ok, plen)
			}
		}
	}
}

// TestMRAIBatches: with a large MRAI, rapid alternating withdraw and
// re-announce cycles at the origin must coalesce into far fewer flushes
// downstream than with MRAI disabled.
func TestMRAIBatches(t *testing.T) {
	run := func(mrai float64) uint64 {
		cfg := defaultCfg()
		cfg.MRAI = mrai
		net, agents := buildChain(t, 4, cfg)
		net.RunUntil(60)
		first := agents[0]
		for i := 0; i < 20; i++ {
			at := 60 + 0.3*float64(i)
			if i%2 == 0 {
				first.Node().Schedule(at, "withdraw", func() { first.WithdrawLocal() })
			} else {
				first.Node().Schedule(at, "announce", func() { first.AnnounceLocal() })
			}
		}
		net.RunUntil(90)
		var flushes uint64
		for _, a := range agents[1:] {
			flushes += a.Stats().Flushes
		}
		return flushes
	}
	unbatched := run(0)
	batched := run(5)
	if batched >= unbatched {
		t.Fatalf("MRAI=5 produced %d flushes, MRAI=0 produced %d: batching had no effect", batched, unbatched)
	}
}

// TestCrashRestartColdStart: a crashed AS loses its RIB, comes back
// empty, and relearns every prefix from the neighbors' periodic
// refreshes.
func TestCrashRestartColdStart(t *testing.T) {
	net, agents := buildChain(t, 4, defaultCfg())
	net.RunUntil(100)
	mid := agents[1]
	if ok, _ := mid.Reachable(agents[3].Node().ID); !ok {
		t.Fatal("not converged before crash")
	}
	mid.Node().Schedule(100, "crash", func() { mid.Crash() })
	mid.Node().Schedule(130, "restart", func() { mid.Restart(0.5) })
	net.RunUntil(131)
	if ok, _ := mid.Reachable(agents[3].Node().ID); ok {
		t.Fatal("RIB survived the crash")
	}
	net.RunUntil(400) // several refresh periods to relearn and re-export
	for i, a := range agents {
		for j, b := range agents {
			if i == j {
				continue
			}
			if ok, _ := a.Reachable(b.Node().ID); !ok {
				t.Fatalf("AS%d cannot reach AS%d after crash recovery", i, j)
			}
		}
	}
	if pp := mid.PendingPackets(); pp != 0 {
		t.Fatalf("pending packets after recovery: %d", pp)
	}
}

// TestHoldTimerExpiry: silencing an AS (Stop without withdraw) must age
// its prefix out of the neighbors' RIBs within the hold time.
func TestHoldTimerExpiry(t *testing.T) {
	net, agents := buildChain(t, 3, defaultCfg())
	net.RunUntil(100)
	last := agents[2]
	if ok, _ := agents[0].Reachable(last.Node().ID); !ok {
		t.Fatal("not converged before stop")
	}
	last.Node().Schedule(100, "stop", func() { last.Stop() })
	// Hold time is 4×30 s; give the sweep a full extra period to fire.
	net.RunUntil(100 + 6*30)
	for i := 0; i < 2; i++ {
		if ok, _ := agents[i].Reachable(last.Node().ID); ok {
			t.Fatalf("AS%d still reaches the silenced AS after the hold time", i)
		}
	}
	if agents[0].Stats().Expired == 0 && agents[1].Stats().Expired == 0 {
		t.Fatal("no hold-timer expirations recorded")
	}
}

// TestWireRoundTrip exercises the encoder/cursor pair, including
// withdrawals and multi-entry messages.
func TestWireRoundTrip(t *testing.T) {
	buf := AppendHeader(nil, 42)
	var err error
	buf, err = AppendAdvertise(buf, 7, 42, []netsim.NodeID{3, 9, 7})
	if err != nil {
		t.Fatal(err)
	}
	buf = AppendWithdraw(buf, 11)
	buf, err = AppendAdvertise(buf, 42, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	PatchCount(buf, 3)
	if want := WireSize([]int{4, 1}, 1); len(buf) != want {
		t.Fatalf("encoded size %d, want %d", len(buf), want)
	}
	router, count, err := PeekHeader(buf)
	if err != nil || router != 42 || count != 3 {
		t.Fatalf("PeekHeader = (%d, %d, %v)", router, count, err)
	}
	c := NewCursor(buf)
	if !c.Next() || c.Origin() != 7 || c.Withdraw() || c.PathLen() != 4 ||
		c.PathAt(0) != 42 || c.PathAt(1) != 3 || c.PathAt(3) != 7 {
		t.Fatalf("entry 0 mismatch")
	}
	if !c.Next() || c.Origin() != 11 || !c.Withdraw() || c.PathLen() != 0 {
		t.Fatalf("entry 1 mismatch")
	}
	if !c.Next() || c.Origin() != 42 || c.PathLen() != 1 || c.PathAt(0) != 42 {
		t.Fatalf("entry 2 mismatch")
	}
	if c.Next() {
		t.Fatal("cursor overran")
	}
	// Truncations must be caught by validation, never panic the cursor.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := PeekHeader(buf[:cut]); err == nil {
			t.Fatalf("PeekHeader accepted a %d-byte truncation of %d", cut, len(buf))
		}
	}
}

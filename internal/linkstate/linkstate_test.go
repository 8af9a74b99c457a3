package linkstate

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
)

func TestWireRoundTrip(t *testing.T) {
	l := LSA{Origin: 7, Seq: 42, Neighbors: []netsim.NodeID{1, 3, 9}}
	buf, err := Encode(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != WireSize(3) {
		t.Fatalf("size %d, want %d", len(buf), WireSize(3))
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != 7 || got.Seq != 42 || len(got.Neighbors) != 3 || got.Neighbors[2] != 9 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestWireErrors(t *testing.T) {
	good, _ := Encode(LSA{Origin: 1, Neighbors: []netsim.NodeID{2}})
	if _, err := Decode(good[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Decode(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	badV := append([]byte(nil), good...)
	badV[2] = 9
	if _, err := Decode(badV); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Encode(LSA{Neighbors: make([]netsim.NodeID, MaxNeighbors+1)}); !errors.Is(err, ErrTooMany) {
		t.Fatalf("err = %v", err)
	}
}

func TestWireGarbageNeverPanics(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		buf := make([]byte, r.Intn(100))
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		_, _ = Decode(buf)
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// lsChain builds a chain of link-state routers and starts them staggered.
func lsChain(k int, seed int64) (*netsim.Network, []*Agent) {
	net := netsim.NewNetwork(seed)
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("ls", nil)
	}
	for i := 0; i+1 < k; i++ {
		net.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{Delay: 0.001})
	}
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		agents[i] = NewAgent(nd, Config{
			RefreshPeriod: 30,
			Jitter:        jitter.HalfSpread{Tp: 30},
			Seed:          seed,
		})
		agents[i].Start(float64(i) + 1)
	}
	return net, agents
}

func TestFloodingFillsLSDBs(t *testing.T) {
	net, agents := lsChain(5, 1)
	net.RunUntil(60)
	for i, a := range agents {
		if got := len(a.LSDB()); got != 5 {
			t.Fatalf("agent %d LSDB has %d origins, want 5", i, got)
		}
	}
}

func TestSPFDistances(t *testing.T) {
	net, agents := lsChain(5, 2)
	net.RunUntil(60)
	for i, a := range agents {
		for j, b := range agents {
			want := j - i
			if want < 0 {
				want = -want
			}
			if got := a.Distance(b.Node().ID); got != want {
				t.Fatalf("agent %d distance to %d = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestFIBForwardsEndToEnd(t *testing.T) {
	net, agents := lsChain(4, 3)
	net.RunUntil(60)
	got := 0
	far := agents[3].Node()
	far.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(*netsim.Packet) { got++ },
	}
	net.Inject(net.NewPacket(netsim.KindData, agents[0].Node().ID, far.ID, 100))
	net.RunUntil(61)
	if got != 1 {
		t.Fatal("packet not delivered over link-state FIB")
	}
}

// TestFloodingTerminates: sequence-number dedup bounds the flooding work;
// a ring topology (a flooding loop risk) must not melt down.
func TestFloodingTerminates(t *testing.T) {
	net := netsim.NewNetwork(4)
	const k = 6
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("ring", nil)
	}
	for i := 0; i < k; i++ {
		net.Connect(nodes[i], nodes[(i+1)%k], netsim.LinkConfig{Delay: 0.001})
	}
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		agents[i] = NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 4})
		agents[i].Start(float64(i) + 1)
	}
	net.RunUntil(65) // ~2 refresh rounds
	// Each origination floods at most once per agent per link direction:
	// with k=6 agents and 2 rounds, the total flooded count is bounded.
	var flooded uint64
	for _, a := range agents {
		flooded += a.Stats().Flooded
	}
	// 2 rounds × 6 LSAs; each LSA crosses each agent once (re-flooding on
	// one of 2 media) plus origination on 2; generous bound: 6 LSAs × 12
	// transmissions × 2 rounds (plus the initial round's extra chatter).
	if flooded > 400 {
		t.Fatalf("flooding did not terminate: %d transmissions", flooded)
	}
	// And everyone converged on the ring distances.
	if d := agents[0].Distance(nodes[3].ID); d != 3 {
		t.Fatalf("ring distance = %d, want 3", d)
	}
}

// TestConvergesOnRandomGraphs: link-state SPF matches BFS ground truth.
func TestConvergesOnRandomGraphs(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		net := netsim.NewNetwork(seed)
		count := 4 + r.Intn(7)
		nodes, _ := net.BuildRandomGraph(r, count, r.Intn(count), nil, netsim.LinkConfig{Delay: 0.001})
		agents := make([]*Agent, count)
		for i, nd := range nodes {
			agents[i] = NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: seed})
			agents[i].Start(r.Uniform(0, 30))
		}
		net.RunUntil(90)
		for i, a := range agents {
			want := net.HopDistances(nodes[i])
			for j, other := range nodes {
				if i == j {
					continue
				}
				if got := a.Distance(other.ID); got != want[other.ID] {
					t.Logf("seed %d: %d→%d = %d, BFS %d", seed, i, j, got, want[other.ID])
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDeadRouterAgesOut: stop one router; its LSA ages out of the others'
// databases and its routes disappear.
func TestDeadRouterAgesOut(t *testing.T) {
	net, agents := lsChain(3, 5)
	net.RunUntil(60)
	dead := agents[2]
	deadID := dead.Node().ID
	dead.Stop()
	// MaxAge = 4 × 30 = 120 s after the last refresh.
	net.RunUntil(60 + 4*30 + 90)
	if d := agents[0].Distance(deadID); d != -1 {
		t.Fatalf("dead router still reachable at distance %d", d)
	}
	if _, ok := agents[0].Node().FIB[deadID]; ok {
		t.Fatal("FIB entry for dead router survived")
	}
	if agents[0].Stats().AgedOut == 0 {
		t.Fatal("no age-outs recorded")
	}
}

// TestLinkFailureReroutes: a diamond reroutes around a dead link after
// the next refresh announces the new adjacency.
func TestLinkFailureReroutes(t *testing.T) {
	net := netsim.NewNetwork(6)
	src := net.NewNode("src", nil)
	top := net.NewNode("top", nil)
	b1 := net.NewNode("b1", nil)
	dst := net.NewNode("dst", nil)
	lTop := net.Connect(src, top, netsim.LinkConfig{Delay: 0.001})
	net.Connect(top, dst, netsim.LinkConfig{Delay: 0.001})
	net.Connect(src, b1, netsim.LinkConfig{Delay: 0.001})
	net.Connect(b1, dst, netsim.LinkConfig{Delay: 0.001})
	var agents []*Agent
	for i, nd := range []*netsim.Node{src, top, b1, dst} {
		a := NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 6})
		a.Start(float64(i) + 1)
		agents = append(agents, a)
	}
	net.RunUntil(60)
	if d := agents[0].Distance(dst.ID); d != 2 {
		t.Fatalf("pre-failure distance = %d", d)
	}
	lTop.SetDown(true)
	// The endpoints notice at their next refresh (adjacency re-read) and
	// flood updated LSAs.
	net.RunUntil(60 + 90)
	if d := agents[0].Distance(dst.ID); d != 2 {
		t.Fatalf("post-failure distance = %d, want 2 via b1", d)
	}
	// And data actually flows via the bottom path.
	got := 0
	dst.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(*netsim.Packet) { got++ },
	}
	pkt := net.NewPacket(netsim.KindData, src.ID, dst.ID, 64)
	pkt.RecordRoute = true
	var hops []netsim.Hop
	dst.OnDeliver[netsim.KindData] = func(p *netsim.Packet) { got++; hops = p.Hops }
	net.Inject(pkt)
	net.RunUntil(net.Sim.Now() + 5)
	if got != 1 {
		t.Fatal("packet not delivered after reroute")
	}
	if len(hops) != 2 || hops[0].Node != b1.ID {
		t.Fatalf("path = %+v, want via b1", hops)
	}
}

func TestAgentValidation(t *testing.T) {
	net := netsim.NewNetwork(7)
	nd := net.NewNode("x", nil)
	for _, f := range []func(){
		func() { NewAgent(nd, Config{RefreshPeriod: 0}) },
		func() { NewAgent(nd, Config{RefreshPeriod: 30, PrepareCost: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	a := NewAgent(nd, Config{RefreshPeriod: 30})
	defer func() {
		if recover() == nil {
			t.Error("negative start offset did not panic")
		}
	}()
	a.Start(-1)
}

// TestAgentRefusesOptimisticPartition: an agent cannot be built on a
// network partitioned in optimistic mode, since its LSDB would not roll
// back; the conservative mode still accepts it.
func TestAgentRefusesOptimisticPartition(t *testing.T) {
	build := func(mode netsim.SyncMode) *netsim.Node {
		net := netsim.NewNetwork(8)
		a, b := net.NewNode("a", nil), net.NewNode("b", nil)
		net.Connect(a, b, netsim.LinkConfig{Delay: 0.01})
		net.Partition(2, func(id netsim.NodeID) int { return int(id) }, netsim.WithSyncMode(mode))
		return a
	}
	NewAgent(build(netsim.SyncConservative), Config{RefreshPeriod: 30})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "optimistic") {
			t.Fatalf("NewAgent on an optimistic partition panicked with %q, want a refusal naming optimistic mode", msg)
		}
	}()
	NewAgent(build(netsim.SyncOptimistic), Config{RefreshPeriod: 30})
}

// TestLSDBsConvergeIdentically: after a quiet period every router holds
// the same database — flooding is eventually consistent.
func TestLSDBsConvergeIdentically(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		net := netsim.NewNetwork(seed)
		count := 3 + r.Intn(6)
		nodes, _ := net.BuildRandomGraph(r, count, r.Intn(count), nil, netsim.LinkConfig{Delay: 0.001})
		agents := make([]*Agent, count)
		for i, nd := range nodes {
			agents[i] = NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: seed})
			agents[i].Start(r.Uniform(0, 30))
		}
		net.RunUntil(120)
		ref := agents[0].LSDB()
		if len(ref) != count {
			return false
		}
		for _, a := range agents[1:] {
			db := a.LSDB()
			if len(db) != len(ref) {
				return false
			}
			for i := range db {
				if db[i].Origin != ref[i].Origin {
					return false
				}
				if len(db[i].Neighbors) != len(ref[i].Neighbors) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

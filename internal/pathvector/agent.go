package pathvector

import (
	"fmt"
	"math/bits"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/protocol"
)

// Relation labels a neighbor from this AS's perspective: the business
// relationship that drives LOCAL_PREF and Gao–Rexford export policy.
type Relation int8

const (
	// RelCustomer: the peer pays us for transit.
	RelCustomer Relation = iota
	// RelPeer: settlement-free peering.
	RelPeer
	// RelProvider: we pay the peer for transit.
	RelProvider
)

func (r Relation) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return fmt.Sprintf("Relation(%d)", int8(r))
}

// localPref maps the learned-from relation to route preference: prefer
// customer routes (they pay) over peer routes over provider routes (we
// pay) — the standard Gao–Rexford preference. Self-originated prefixes
// outrank everything.
func localPref(r Relation) uint8 {
	switch r {
	case RelCustomer:
		return 100
	case RelPeer:
		return 80
	default:
		return 60
	}
}

// PeerConfig declares one BGP session: the link that carries it and the
// neighbor's relation to this AS.
type PeerConfig struct {
	Link *netsim.Link
	Rel  Relation
}

// MaxOrigins bounds the origin set: the per-peer dirty and
// advertised-state sets are single-word bitsets, which keeps the MRAI
// flush path allocation-free.
const MaxOrigins = 64

// Config assembles a path-vector agent.
type Config struct {
	// Origins is the bounded prefix set, shared by every agent in the
	// network: the ASes that originate a prefix, each identified by its
	// node id. At most MaxOrigins. Order must be identical across
	// agents (it indexes the RIB).
	Origins []netsim.NodeID
	// Peers lists the BGP sessions in deterministic order.
	Peers []PeerConfig
	// RefreshPeriod is the periodic re-advertisement interval: each AS
	// re-sends its reachable prefixes to every peer (a soft refresh that
	// renews the neighbor's hold timer), subject to MRAI batching. This
	// is the outer periodic timer the kernel owns.
	RefreshPeriod float64
	// Jitter yields refresh intervals; nil means the deterministic
	// period.
	Jitter jitter.Policy
	// MRAI is the per-peer minimum route advertisement interval: after a
	// flush to a peer, further updates for that peer batch until the
	// interval expires. Zero disables batching (every change sends
	// immediately).
	MRAI float64
	// MRAIJitter yields the per-peer batching intervals; nil means the
	// fixed MRAI. Ignored when MRAI is zero.
	MRAIJitter jitter.Policy
	// PrepareCost / ProcessCost are seconds of CPU to build one update
	// flush and to process one received update message.
	PrepareCost float64
	ProcessCost float64
	// HoldFactor: adj-in routes unrefreshed for HoldFactor·RefreshPeriod
	// are expired as implicit withdrawals (the hold timer); zero means 4.
	HoldFactor float64
	// Mode selects the refresh-timer re-arm rule (the paper's coupling
	// by default).
	Mode protocol.TimerMode
	// Seed drives the agent's jitter streams.
	Seed int64
}

// Stats counts agent activity.
type Stats struct {
	// Flushes is the number of update messages sent (MRAI rounds);
	// Advertised/Withdrawn count the entries inside them.
	Flushes    uint64
	Advertised uint64
	Withdrawn  uint64
	// Received counts accepted update messages; Entries the entries
	// inside them.
	Received uint64
	Entries  uint64
	// LoopRejected counts entries dropped because our own AS was already
	// in the path (the path-vector loop-prevention rule).
	LoopRejected uint64
	Malformed    uint64
	// BestChanges counts route-selection outcomes that changed the best
	// path for some origin (each one propagates).
	BestChanges uint64
	// Expired counts adj-in routes aged out by the hold timer.
	Expired uint64
	// TimerResets is the refresh-timer arm count (kernel-owned).
	TimerResets uint64
}

// adjSlot is one (origin, peer) cell of the Adj-RIB-In: the AS path the
// peer advertised, nil-length-with-has=false when none. The backing
// array is reused across re-advertisements, so steady-state integration
// allocates nothing once each slot reaches its high-water length.
type adjSlot struct {
	path    []netsim.NodeID
	has     bool
	updated float64
}

const (
	bestNone = -1 // origin currently unreachable
	bestSelf = -2 // self-originated
)

// pvAux carries the sending peer's index, resolved at receive time so
// the CPU-completion path needn't re-search.
type pvAux struct {
	peer int
}

type peerState struct {
	link *netsim.Link
	id   netsim.NodeID
	rel  Relation
	// dirty marks origins needing (re)advertisement to this peer; advOut
	// marks origins currently advertised (so transitions to
	// unreachable/unexportable send withdrawals exactly once).
	dirty  uint64
	advOut uint64
	// MRAI batching: while armed, flushes wait for the timer; the timer
	// re-arms only while traffic flows, so idle peers cost no events.
	mraiArmed bool
	mraiEv    des.Event
	mraiFn    func() // hoisted: one closure per peer per agent lifetime
	label     string
}

// Agent is one AS's path-vector process: a BGP-like protocol strategy
// over the shared protocol kernel, which owns the refresh timer, CPU
// and crash/restart machinery. MRAI timers are the agent's own — one
// per peer, outside the kernel's single periodic timer.
type Agent struct {
	k   *protocol.Kernel[pvAux]
	cfg Config

	peers     []peerState
	peerByID  map[netsim.NodeID]int
	origins   []netsim.NodeID
	originIdx map[netsim.NodeID]int
	selfIdx   int  // index of own prefix in origins, or -1
	localUp   bool // own prefix currently originated

	adjIn [][]adjSlot // [origin][peer]
	best  []int       // [origin] → bestSelf, bestNone, or peer index

	stats Stats

	// OnFlush, if set, observes every update message sent: the flush
	// time, the peer, and the entry counts. The MRAI-synchronization
	// experiment clusters these times.
	OnFlush func(t float64, peer netsim.NodeID, advertised, withdrawn int)
	// OnBestChange, if set, observes route-selection changes; path is
	// nil when the origin became unreachable. The path slice is reused —
	// observers keeping it must copy.
	OnBestChange func(origin netsim.NodeID, path []netsim.NodeID)
}

// NewAgent creates an agent on node. Call Start to begin. It panics if
// the node's network is partitioned in optimistic mode: the agent's
// adj-RIB-in and MRAI state have no rollback hooks, so the kernel
// refuses it.
func NewAgent(node *netsim.Node, cfg Config) *Agent {
	if cfg.RefreshPeriod <= 0 {
		panic("pathvector: refresh period must be positive")
	}
	if len(cfg.Origins) == 0 || len(cfg.Origins) > MaxOrigins {
		panic(fmt.Sprintf("pathvector: origin set must have 1..%d entries", MaxOrigins))
	}
	if cfg.PrepareCost < 0 || cfg.ProcessCost < 0 || cfg.MRAI < 0 {
		panic("pathvector: negative costs or MRAI")
	}
	if cfg.Jitter == nil {
		cfg.Jitter = jitter.None{Tp: cfg.RefreshPeriod}
	}
	if cfg.MRAI > 0 && cfg.MRAIJitter == nil {
		cfg.MRAIJitter = jitter.None{Tp: cfg.MRAI}
	}
	if cfg.HoldFactor == 0 {
		cfg.HoldFactor = 4
	}
	a := &Agent{
		cfg:       cfg,
		peerByID:  make(map[netsim.NodeID]int, len(cfg.Peers)),
		origins:   cfg.Origins,
		originIdx: make(map[netsim.NodeID]int, len(cfg.Origins)),
		selfIdx:   -1,
	}
	a.peers = make([]peerState, len(cfg.Peers))
	for i, pc := range cfg.Peers {
		if pc.Link == nil {
			panic("pathvector: peer without a link")
		}
		peer := pc.Link.Peer(node)
		a.peers[i] = peerState{
			link:  pc.Link,
			id:    peer.ID,
			rel:   pc.Rel,
			label: fmt.Sprintf("pv-mrai(%s->%s)", node.Name, peer.Name),
		}
		a.peerByID[peer.ID] = i
	}
	for i, o := range cfg.Origins {
		a.originIdx[o] = i
		if o == node.ID {
			a.selfIdx = i
			a.localUp = true
		}
	}
	a.adjIn = make([][]adjSlot, len(cfg.Origins))
	for i := range a.adjIn {
		a.adjIn[i] = make([]adjSlot, len(cfg.Peers))
	}
	a.best = make([]int, len(cfg.Origins))
	for i := range a.best {
		a.best[i] = bestNone
	}
	if a.selfIdx >= 0 {
		a.best[a.selfIdx] = bestSelf
	}
	a.k = protocol.New(protocol.Config{
		Name:       "pathvector",
		Node:       node,
		Seed:       cfg.Seed ^ int64(node.ID)*0x2545F4914F6CDD1D,
		Jitter:     cfg.Jitter,
		Mode:       cfg.Mode,
		TimerLabel: fmt.Sprintf("pv-refresh(%s)", node.Name),
		RearmLabel: "pv-rearm-wait",
		SweepLabel: "pv-hold-sweep",
		SweepEvery: cfg.RefreshPeriod,
	}, protocol.Hooks[pvAux]{
		Fire:    a.refresh,
		Receive: a.receive,
		Process: a.process,
		Sweep:   a.sweep,
		// A reboot loses the RIB and every session's batching state; the
		// origin set and peer sessions are configuration and survive.
		ResetVolatile: func() { a.resetRIB() },
	})
	for i := range a.peers {
		p := &a.peers[i]
		p.mraiFn = func() { a.onMRAI(p) }
	}
	return a
}

// Node returns the agent's node.
func (a *Agent) Node() *netsim.Node { return a.k.Node() }

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	s := a.stats
	s.TimerResets = a.k.TimerResets()
	return s
}

// PendingPackets returns the number of received updates held while their
// processing cost drains through the CPU model (see the kernel).
func (a *Agent) PendingPackets() int { return a.k.PendingPackets() }

// resetRIB clears the volatile routing state in place: Adj-RIB-In, best
// selections, and per-peer dirty/advertised/MRAI state (cancelling any
// armed MRAI timers).
func (a *Agent) resetRIB() {
	for o := range a.adjIn {
		row := a.adjIn[o]
		for p := range row {
			row[p].has = false
			row[p].path = row[p].path[:0]
		}
		a.best[o] = bestNone
	}
	if a.selfIdx >= 0 && a.localUp {
		a.best[a.selfIdx] = bestSelf
	}
	a.cancelMRAIs()
	for i := range a.peers {
		a.peers[i].dirty = 0
		a.peers[i].advOut = 0
	}
}

func (a *Agent) cancelMRAIs() {
	node := a.k.Node()
	for i := range a.peers {
		p := &a.peers[i]
		if p.mraiArmed {
			node.Cancel(p.mraiEv)
			p.mraiEv = des.Event{}
			p.mraiArmed = false
		}
	}
}

// Start arms the first refresh to fire startOffset seconds from now.
// The initial advertisement of reachable prefixes rides that first
// refresh, so a shared startOffset models the synchronized post-restart
// state exactly as the distance-vector family does.
func (a *Agent) Start(startOffset float64) {
	a.k.StartTimer(startOffset)
	a.k.ScheduleSweep()
}

// Stop halts the agent: refresh, sweep and MRAI timers are cancelled
// and incoming updates are ignored; the RIB is left for inspection.
func (a *Agent) Stop() {
	a.k.Stop()
	a.cancelMRAIs()
}

// Crash models a power failure: the RIB and session batching state are
// lost and the node is marked failed until Restart (see the kernel).
func (a *Agent) Crash() { a.k.Crash() }

// Restart reboots a stopped agent and arms the first refresh
// startOffset seconds from now; after a Crash the agent cold-starts
// from an empty RIB and relies on the neighbors' periodic refreshes to
// relearn paths.
func (a *Agent) Restart(startOffset float64) {
	a.k.Restart()
	a.Start(startOffset)
}

// WithdrawLocal withdraws the agent's own prefix: selection falls back
// to any learned path (none, usually, for the true origin), and the
// withdrawal propagates — the trigger for path-exploration storms. Call
// it from an event executing at the agent's node. No-op unless this AS
// is an origin.
func (a *Agent) WithdrawLocal() {
	if a.selfIdx < 0 || !a.localUp {
		return
	}
	a.localUp = false
	if a.reselect(a.selfIdx, -1) {
		a.flushIdlePeers()
	}
}

// AnnounceLocal re-originates a withdrawn prefix.
func (a *Agent) AnnounceLocal() {
	if a.selfIdx < 0 || a.localUp {
		return
	}
	a.localUp = true
	if a.reselect(a.selfIdx, -1) {
		a.flushIdlePeers()
	}
}

// Reachable reports whether the agent currently has a route to origin,
// and the AS-path length (0 for a self-originated prefix).
func (a *Agent) Reachable(origin netsim.NodeID) (bool, int) {
	o, ok := a.originIdx[origin]
	if !ok {
		return false, 0
	}
	switch b := a.best[o]; b {
	case bestNone:
		return false, 0
	case bestSelf:
		return true, 0
	default:
		return true, len(a.adjIn[o][b].path)
	}
}

// BestPath appends the current best AS path toward origin (first hop
// first, origin last) onto dst and returns it; self-originated and
// unreachable prefixes append nothing.
func (a *Agent) BestPath(dst []netsim.NodeID, origin netsim.NodeID) []netsim.NodeID {
	o, ok := a.originIdx[origin]
	if !ok {
		return dst
	}
	if b := a.best[o]; b >= 0 {
		dst = append(dst, a.adjIn[o][b].path...)
	}
	return dst
}

// refresh is the kernel's periodic fire: re-advertise every reachable
// prefix to every peer (renewing the neighbors' hold timers), subject
// to per-peer MRAI batching, then charge the preparation cost and
// re-arm once the CPU drains — the paper's coupled reset discipline at
// the refresh-timer layer. Refreshes are deliberately not cascaded: a
// neighbor whose RIB is unchanged by our refresh stays silent, so hold
// renewal is Θ(degree) per period, not a network-wide wave.
func (a *Agent) refresh() {
	for o := range a.origins {
		if a.best[o] != bestNone {
			a.markDirtyAll(o)
		}
	}
	a.flushIdlePeers()
	a.k.FinishSend(a.cfg.PrepareCost, true)
}

// markDirtyAll marks origin o dirty toward every peer.
func (a *Agent) markDirtyAll(o int) {
	bit := uint64(1) << uint(o)
	for i := range a.peers {
		a.peers[i].dirty |= bit
	}
}

// flushIdlePeers flushes every peer with dirty state whose MRAI timer
// is not running; peers mid-interval keep batching until it expires.
func (a *Agent) flushIdlePeers() {
	for i := range a.peers {
		p := &a.peers[i]
		if p.dirty != 0 && !p.mraiArmed {
			a.flushPeer(p)
		}
	}
}

// flushPeer builds and sends one update message carrying the peer's
// dirty set — advertisements for exportable reachable origins,
// withdrawals for origins previously advertised and no longer
// exportable — then starts the MRAI interval. A flush whose dirty set
// produces no entries (nothing exportable, nothing to withdraw) sends
// nothing and does not arm the timer.
func (a *Agent) flushPeer(p *peerState) {
	node := a.k.Node()
	buf := AppendHeader(a.k.Enc[:0], node.ID)
	adv, wdr := 0, 0
	dirty := p.dirty
	p.dirty = 0
	for dirty != 0 {
		o := bits.TrailingZeros64(dirty)
		dirty &^= uint64(1) << uint(o)
		bit := uint64(1) << uint(o)
		if a.exportable(o, p) {
			var err error
			buf, err = AppendAdvertise(buf, a.origins[o], node.ID, a.bestPathFor(o))
			if err != nil {
				panic(err) // paths are bounded by the topology diameter
			}
			p.advOut |= bit
			adv++
		} else if p.advOut&bit != 0 {
			buf = AppendWithdraw(buf, a.origins[o])
			p.advOut &^= bit
			wdr++
		}
	}
	a.k.Enc = buf
	if adv+wdr == 0 {
		return
	}
	PatchCount(buf, adv+wdr)
	a.k.Send(p.link, p.id, buf)
	a.stats.Flushes++
	a.stats.Advertised += uint64(adv)
	a.stats.Withdrawn += uint64(wdr)
	if a.OnFlush != nil {
		a.OnFlush(node.Now(), p.id, adv, wdr)
	}
	if a.cfg.MRAI > 0 {
		// Per-peer MRAI interval through the jitter policy, drawn from the
		// kernel's stream with a per-peer id so PerRouterFixed-style
		// policies decorrelate sessions, not just routers.
		delay := a.cfg.MRAIJitter.Delay(a.k.RNG(), int(node.ID)*8191+int(p.id))
		p.mraiEv = node.After(delay, p.label, p.mraiFn)
		p.mraiArmed = true
	}
}

// onMRAI fires at a peer's MRAI expiration: flush any batched changes
// (restarting the interval), or go idle.
func (a *Agent) onMRAI(p *peerState) {
	if a.k.Stopped() {
		return
	}
	p.mraiArmed = false
	if p.dirty != 0 {
		a.flushPeer(p)
	}
}

// bestPathFor returns the stored AS path for origin o's best route —
// empty for a self-originated prefix. Callers must not mutate or keep
// it.
func (a *Agent) bestPathFor(o int) []netsim.NodeID {
	if b := a.best[o]; b >= 0 {
		return a.adjIn[o][b].path
	}
	return nil
}

// exportable applies Gao–Rexford export: self-originated and
// customer-learned routes go to everyone; peer- and provider-learned
// routes go to customers only (we don't provide free transit between
// our providers and peers). A peer already on the path is skipped —
// the sender-side half of loop prevention.
func (a *Agent) exportable(o int, p *peerState) bool {
	b := a.best[o]
	switch {
	case b == bestNone:
		return false
	case b == bestSelf:
		return true
	}
	learned := a.peers[b].rel
	if learned != RelCustomer && p.rel != RelCustomer {
		return false
	}
	// Sender-side loop suppression; hop 0 is the peer the best route was
	// learned from, so this also covers never echoing a route back to
	// its source.
	for _, h := range a.adjIn[o][b].path {
		if h == p.id {
			return false
		}
	}
	return true
}

// receive handles an incoming update: validate the frame, resolve the
// sending peer, and route it through the CPU model. netsim transfers
// packet ownership here; every path ends in ReleasePacket.
func (a *Agent) receive(pkt *netsim.Packet, via netsim.Medium) {
	router, _, err := PeekHeader(pkt.Payload)
	if err != nil {
		a.stats.Malformed++
		a.k.Node().ReleasePacket(pkt)
		return
	}
	pi, ok := a.peerByID[router]
	if !ok || a.peers[pi].link != via {
		// Not a configured session (or a spoofed arrival on the wrong
		// link): not our update.
		a.stats.Malformed++
		a.k.Node().ReleasePacket(pkt)
		return
	}
	a.stats.Received++
	a.k.Process(pkt, via, pvAux{peer: pi}, a.cfg.ProcessCost)
}

// process is the kernel's processing completion: integrate each entry,
// re-run selection for touched origins, and propagate changes.
func (a *Agent) process(pkt *netsim.Packet, _ netsim.Medium, aux pvAux) {
	if a.k.Stopped() {
		return
	}
	now := a.k.Node().Now()
	changed := false
	for c := NewCursor(pkt.Payload); c.Next(); {
		a.stats.Entries++
		o, ok := a.originIdx[c.Origin()]
		if !ok {
			continue // outside the configured origin set
		}
		if c.Withdraw() {
			if a.clearAdj(o, aux.peer) && a.reselect(o, -1) {
				changed = true
			}
			continue
		}
		if a.integrate(o, aux.peer, &c, now) && a.reselect(o, aux.peer) {
			changed = true
		}
	}
	if changed {
		a.flushIdlePeers()
	}
}

// integrate installs one advertised path into Adj-RIB-In[o][peer],
// reporting whether the stored route changed. Loop detection happens
// here: a path already containing our AS is treated as a withdrawal
// from that peer (the route is unusable, and if we previously used it,
// selection must move off it).
func (a *Agent) integrate(o, peer int, c *Cursor, now float64) bool {
	node := a.k.Node()
	n := c.PathLen()
	for i := 0; i < n; i++ {
		if c.PathAt(i) == node.ID {
			a.stats.LoopRejected++
			return a.clearAdj(o, peer)
		}
	}
	slot := &a.adjIn[o][peer]
	same := slot.has && len(slot.path) == n
	if same {
		for i := 0; i < n; i++ {
			if slot.path[i] != c.PathAt(i) {
				same = false
				break
			}
		}
	}
	slot.updated = now
	if same {
		return false // pure refresh: renew the hold timer, change nothing
	}
	slot.path = slot.path[:0]
	for i := 0; i < n; i++ {
		slot.path = append(slot.path, c.PathAt(i))
	}
	slot.has = true
	return true
}

// clearAdj removes Adj-RIB-In[o][peer], reporting whether it existed.
func (a *Agent) clearAdj(o, peer int) bool {
	slot := &a.adjIn[o][peer]
	if !slot.has {
		return false
	}
	slot.has = false
	slot.path = slot.path[:0]
	return true
}

// reselect re-runs route selection for origin o: highest LOCAL_PREF
// (customer > peer > provider), then shortest AS path, then lowest
// neighbor id — deterministic and independent of arrival order. touched
// is the peer whose adj-in slot the triggering change rewrote (so a
// content change under a stable winner still propagates), or -1 for
// removals and local origination toggles, whose effect is fully visible
// in the winner's identity. It reports whether the advertised best
// route changed, marking the origin dirty toward every peer when it
// did.
func (a *Agent) reselect(o, touched int) bool {
	prev := a.best[o]
	next := bestNone
	if a.selfIdx == o && a.localUp {
		next = bestSelf
	} else {
		var bPref uint8
		var bLen int
		for i := range a.peers {
			slot := &a.adjIn[o][i]
			if !slot.has {
				continue
			}
			pref, plen := localPref(a.peers[i].rel), len(slot.path)
			if next == bestNone || pref > bPref || (pref == bPref && (plen < bLen ||
				(plen == bLen && a.peers[i].id < a.peers[next].id))) {
				next, bPref, bLen = i, pref, plen
			}
		}
	}
	if next == prev && (prev < 0 || touched != prev) {
		// Same winner and the change was elsewhere (a losing slot, or a
		// removal that by construction wasn't the winner): the advertised
		// route is untouched.
		return false
	}
	a.best[o] = next
	a.stats.BestChanges++
	a.markDirtyAll(o)
	if a.OnBestChange != nil {
		a.OnBestChange(a.origins[o], a.bestPathFor(o))
	}
	return true
}

// sweep expires adj-in routes unrefreshed past the hold time — implicit
// withdrawals from dead or partitioned peers — and propagates any
// resulting selection changes. The kernel schedules it every
// RefreshPeriod.
func (a *Agent) sweep() {
	now := a.k.Node().Now()
	hold := a.cfg.HoldFactor * a.cfg.RefreshPeriod
	changed := false
	for o := range a.origins {
		row := a.adjIn[o]
		touched := false
		for p := range row {
			if row[p].has && now-row[p].updated > hold {
				row[p].has = false
				row[p].path = row[p].path[:0]
				a.stats.Expired++
				touched = true
			}
		}
		if touched && a.reselect(o, -1) {
			changed = true
		}
	}
	if changed {
		a.flushIdlePeers()
	}
}

package routing

import (
	"fmt"
	"math"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/protocol"
)

// TimerMode selects when the routing timer is re-armed; it is the
// kernel's TimerMode, re-exported so distance-vector call sites keep
// reading naturally.
type TimerMode = protocol.TimerMode

const (
	// TimerResetAfterProcessing re-arms the timer only once the CPU has
	// finished preparing the router's own update and processing any
	// updates that arrived meanwhile — the paper's §3 model and the
	// behaviour of the implementations it cites ([Li93]).
	TimerResetAfterProcessing = protocol.TimerResetAfterProcessing
	// TimerResetOnExpiry re-arms relative to the previous expiration,
	// regardless of processing time (the RFC 1058 suggestion).
	TimerResetOnExpiry = protocol.TimerResetOnExpiry
)

// Costs models router CPU consumption per routing message, following the
// paper's Xerox PARC measurement of roughly 1 ms per route.
type Costs struct {
	// PerRoutePrepare is seconds of CPU per route to build an update.
	PerRoutePrepare float64
	// PerRouteProcess is seconds of CPU per route to process a received
	// update.
	PerRouteProcess float64
	// MinPrepare / MinProcess floor the per-message cost (header
	// parsing, scheduling) regardless of route count.
	MinPrepare float64
	MinProcess float64
}

// DefaultCosts returns the paper's measured cost model: 1 ms per route
// each way with a 1 ms floor.
func DefaultCosts() Costs {
	return Costs{PerRoutePrepare: 0.001, PerRouteProcess: 0.001, MinPrepare: 0.001, MinProcess: 0.001}
}

// Config assembles an agent's behaviour.
type Config struct {
	// Profile holds the protocol constants (period, infinity, ...).
	Profile Profile
	// Jitter yields timer intervals; nil means the deterministic period
	// (jitter.None), the configuration the paper warns about.
	Jitter jitter.Policy
	// Costs models CPU consumption; the zero value means free processing
	// (useful for pure-convergence tests).
	Costs Costs
	// TimerMode selects the re-arm rule; zero value is the paper's.
	TimerMode TimerMode
	// TriggeredResetsTimer controls whether a triggered update re-arms
	// the periodic timer (§3 step 4 does; some real implementations do
	// not [Li93]).
	TriggeredResetsTimer bool
	// TriggerHoldoff rate-limits triggered updates (seconds); zero means
	// 1 s.
	TriggerHoldoff float64
	// ExtraRoutes inflates the advertised table with this many synthetic
	// routes, modelling routers that carry many more destinations than
	// the simulated topology (the PARC routers carried ~300 routes).
	ExtraRoutes int
	// RequestOnStart broadcasts a table request when the agent starts
	// (RFC 1058 §3.4.1), so a rebooted router converges without waiting
	// up to a full period for its neighbors' timers.
	RequestOnStart bool
	// LinkCost returns the metric charged for a hop over the given
	// medium (>= 1). Nil means hop count (cost 1 everywhere). Delay-
	// weighted protocols like Hello supply costs derived from the
	// medium's latency.
	LinkCost func(netsim.Medium) uint32
	// Seed drives the agent's private jitter stream.
	Seed int64
}

// Stats counts agent activity.
type Stats struct {
	PeriodicSent     uint64
	TriggeredSent    uint64
	Received         uint64
	Malformed        uint64
	TimerResets      uint64
	RouteChanges     uint64
	ExpiredRoutes    uint64
	DeletedRoutes    uint64
	RequestsSent     uint64
	RequestsAnswered uint64
}

// Agent is one router's routing process: a distance-vector protocol
// strategy over the shared protocol kernel, which owns the timer, CPU
// and crash/restart machinery.
type Agent struct {
	k   *protocol.Kernel[struct{}]
	cfg Config

	table    *Table
	lastTrig float64
	stats    Stats

	// Scratch buffers for the steady-state update cycle: entries
	// exported for an outgoing update and entries decoded from an
	// incoming one (the encode scratch lives on the kernel).
	expScratch []Entry
	entScratch []Entry

	// OnSend, if set, observes every update transmission (experiments
	// use it for cluster detection on the packet-level substrate).
	OnSend func(t float64, triggered bool)
	// OnTimerReset, if set, observes every timer re-arm with the
	// absolute expiry time.
	OnTimerReset func(resetAt, expiresAt float64)
	// OnRouteChange, if set, observes forwarding-state transitions for a
	// destination: reachable == true when a route is (re)programmed into
	// the FIB, false when the destination becomes unreachable or its
	// route is expired. The age-of-information instrumentation in
	// internal/faults hangs off this hook; nil costs one predictable
	// branch per transition.
	OnRouteChange func(dest netsim.NodeID, metric uint32, reachable bool)

	// ckpt shadows the agent's rollback state (table, trigger holdoff,
	// counters); the kernel checkpoints its own state separately.
	ckpt agentCkpt
}

type agentCkpt struct {
	lastTrig float64
	stats    Stats
	table    tableCkpt
}

// SaveCheckpoint implements netsim.Checkpointable for optimistic
// partitioned runs.
func (a *Agent) SaveCheckpoint() {
	a.ckpt.lastTrig = a.lastTrig
	a.ckpt.stats = a.stats
	a.table.saveInto(&a.ckpt.table)
}

// RestoreCheckpoint implements netsim.Checkpointable.
func (a *Agent) RestoreCheckpoint() {
	a.lastTrig = a.ckpt.lastTrig
	a.stats = a.ckpt.stats
	a.table.restoreFrom(&a.ckpt.table)
}

// NewAgent creates an agent on node and installs its receive hook. Call
// Start to arm the first timer. It panics on invalid configuration.
func NewAgent(node *netsim.Node, cfg Config) *Agent {
	if err := cfg.Profile.Validate(); err != nil {
		panic(err)
	}
	if cfg.Jitter == nil {
		cfg.Jitter = jitter.None{Tp: cfg.Profile.Period}
	}
	if cfg.TriggerHoldoff == 0 {
		cfg.TriggerHoldoff = 1
	}
	if cfg.Costs.PerRoutePrepare < 0 || cfg.Costs.PerRouteProcess < 0 ||
		cfg.Costs.MinPrepare < 0 || cfg.Costs.MinProcess < 0 {
		panic("routing: negative costs")
	}
	if cfg.ExtraRoutes < 0 || cfg.ExtraRoutes > MaxEntries/2 {
		panic("routing: ExtraRoutes out of range")
	}
	a := &Agent{
		cfg:   cfg,
		table: NewTable(cfg.Profile.Infinity),
	}
	a.table.SetHoldDown(cfg.Profile.HoldDown)
	a.k = protocol.New(protocol.Config{
		Name:       "routing",
		Node:       node,
		Seed:       cfg.Seed ^ int64(node.ID)*0x9E3779B9,
		Jitter:     cfg.Jitter,
		Mode:       cfg.TimerMode,
		TimerLabel: fmt.Sprintf("routing-timer(%s)", node.Name),
		RearmLabel: "routing-rearm-wait",
		SweepLabel: "routing-sweep",
		SweepEvery: cfg.Profile.Period,
	}, protocol.Hooks[struct{}]{
		Fire:    a.onTimer,
		Receive: a.receive,
		Process: a.process,
		Sweep:   a.sweep,
		TimerArmed: func(resetAt, expiresAt float64) {
			if a.OnTimerReset != nil {
				a.OnTimerReset(resetAt, expiresAt)
			}
		},
		// Reset in place: the table's route slice and scratch keep their
		// capacity, so repeated crash/reboot cycles stop allocating once
		// the first life's high-water marks are reached.
		ResetVolatile: func() { a.table.Reset() },
		Restarted: func() {
			a.lastTrig = a.k.Node().Now() - a.cfg.TriggerHoldoff
		},
	})
	node.Net().RegisterCheckpoint(node, a)
	return a
}

// Node returns the agent's node.
func (a *Agent) Node() *netsim.Node { return a.k.Node() }

// Table returns the agent's routing table.
func (a *Agent) Table() *Table { return a.table }

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	s := a.stats
	s.TimerResets = a.k.TimerResets()
	return s
}

// Start installs the router's own route and arms the first timer to fire
// at startOffset seconds from now. A shared startOffset of 0 across
// agents models the post-restart synchronized state; drawing offsets from
// U[0, Period] models the unsynchronized state.
func (a *Agent) Start(startOffset float64) {
	node := a.k.Node()
	a.table.SetLocal(node.ID, node.Now())
	a.k.StartTimer(startOffset)
	// Housekeeping sweep, offset to avoid colliding with the timer.
	a.k.ScheduleSweep()
	if a.cfg.RequestOnStart {
		a.sendRequest()
	}
}

// sendRequest broadcasts a table request on every medium.
func (a *Agent) sendRequest() {
	node := a.k.Node()
	payload, err := EncodeInto(a.k.Enc[:0], Message{Router: node.ID, Request: true})
	if err != nil {
		panic(err)
	}
	a.k.Enc = payload
	for i := 0; i < node.NumMedia(); i++ {
		a.k.Send(node.MediumAt(i), netsim.Broadcast, payload)
	}
	a.stats.RequestsSent++
}

// Stop halts the agent; see the kernel's Stop. The routing table is
// left as-is for post-mortem inspection.
func (a *Agent) Stop() { a.k.Stop() }

// Crash models a power failure mid-run: the volatile routing state —
// table, hold-down windows, FIB — is lost and the node is marked failed
// until Restart; see the kernel's Crash.
func (a *Agent) Crash() { a.k.Crash() }

// Restart reboots a stopped agent and arms the first periodic timer
// startOffset seconds from now; see the kernel's Restart. With
// Config.RequestOnStart set the agent broadcasts a table request
// immediately (RFC 1058 §3.4.1), so recovery does not wait on the
// neighbors' periodic timers.
func (a *Agent) Restart(startOffset float64) {
	a.k.Restart()
	a.Start(startOffset)
}

// onTimer fires at a periodic timer expiration: prepare and send the
// router's own update (§3 step 1).
func (a *Agent) onTimer() {
	a.sendUpdate(false, true)
}

// sendUpdate broadcasts an update and charges the preparation cost to the
// CPU. The broadcast leaves immediately — the paper's §4 simulation
// assumption that "the other nodes are immediately notified that node A
// will be sending a routing message", which reflects real multi-packet
// updates whose first packets arrive while the sender is still preparing
// the rest. The preparation cost then occupies the CPU, and when
// resetTimer is set the periodic timer is re-armed only after the CPU
// backlog (own preparation plus any incoming updates) drains (§3 step 3).
func (a *Agent) sendUpdate(triggered, resetTimer bool) {
	a.broadcast(triggered)
	prep := math.Max(a.cfg.Costs.MinPrepare,
		a.cfg.Costs.PerRoutePrepare*float64(a.table.Len()+a.cfg.ExtraRoutes))
	a.k.FinishSend(prep, resetTimer)
}

// broadcast transmits the table on every attached medium, applying split
// horizon per medium. Export, encode and payload all ride per-agent (or
// per-packet-slot) scratch, so a steady-state update allocates nothing.
func (a *Agent) broadcast(triggered bool) {
	node := a.k.Node()
	for i := 0; i < node.NumMedia(); i++ {
		m := node.MediumAt(i)
		a.expScratch = a.table.ExportInto(a.expScratch[:0], m, a.cfg.Profile.SplitHorizon, a.cfg.Profile.PoisonReverse)
		a.expScratch = a.padSynthetic(a.expScratch)
		payload, err := EncodeInto(a.k.Enc[:0], Message{Router: node.ID, Triggered: triggered, Entries: a.expScratch})
		if err != nil {
			panic(err) // table size is bounded by MaxEntries via ExtraRoutes validation
		}
		a.k.Enc = payload
		a.k.Send(m, netsim.Broadcast, payload)
	}
	if triggered {
		a.stats.TriggeredSent++
	} else {
		a.stats.PeriodicSent++
	}
	if a.OnSend != nil {
		a.OnSend(node.Now(), triggered)
	}
}

// padSynthetic appends the configured synthetic routes, advertised as
// unreachable-1 so they never win over real ones. They exist to make
// update preparation/processing cost realistic (the PARC ~300-route
// tables).
func (a *Agent) padSynthetic(entries []Entry) []Entry {
	if a.cfg.ExtraRoutes == 0 {
		return entries
	}
	node := a.k.Node()
	base := netsim.NodeID(1 << 20) // far outside real node-id space
	for i := 0; i < a.cfg.ExtraRoutes; i++ {
		entries = append(entries, Entry{
			Dest:   base + netsim.NodeID(int(node.ID)*MaxEntries+i),
			Metric: a.cfg.Profile.Infinity - 1,
		})
	}
	return entries
}

// receive handles an incoming routing packet: consume CPU, then fold the
// update into the table (§3 steps 2/4). netsim transfers packet
// ownership here; every path ends in ReleasePacket — immediately for
// drops, synchronous processing and request replies, or from the
// kernel's pending FIFO once the CPU finishes for queued work.
func (a *Agent) receive(pkt *netsim.Packet, via netsim.Medium) {
	node := a.k.Node()
	router, _, request, count, err := PeekHeader(pkt.Payload)
	if err != nil {
		a.stats.Malformed++
		node.ReleasePacket(pkt)
		return
	}
	if router == node.ID {
		node.ReleasePacket(pkt) // our own broadcast reflected back; ignore
		return
	}
	a.stats.Received++
	if request {
		// Answer with a full update without resetting our own timer
		// (RFC 1058: responses to requests are not regular updates).
		a.stats.RequestsAnswered++
		a.sendUpdate(false, false)
		node.ReleasePacket(pkt)
		return
	}
	proc := math.Max(a.cfg.Costs.MinProcess,
		a.cfg.Costs.PerRouteProcess*float64(count))
	a.k.Process(pkt, via, struct{}{}, proc)
}

// process is the kernel's processing completion: decode and integrate
// the validated update (the synchronous no-CPU path lands here too).
func (a *Agent) process(pkt *netsim.Packet, via netsim.Medium, _ struct{}) {
	a.integrateWire(pkt.Payload, via)
}

// integrateWire decodes a validated update into per-agent scratch and
// integrates it — the allocation-free path behind both the synchronous
// branch of receive and the CPU completion.
func (a *Agent) integrateWire(payload []byte, via netsim.Medium) {
	router, triggered, _, _, err := PeekHeader(payload)
	if err != nil {
		panic("routing: integrateWire on unvalidated payload")
	}
	a.entScratch = AppendEntries(a.entScratch[:0], payload)
	a.integrate(Message{Router: router, Triggered: triggered, Entries: a.entScratch}, via)
}

// PendingPackets returns the number of received updates the agent is
// holding while their processing cost drains through the CPU model —
// packets the agent owns but has not released yet. Leak audits add it to
// netsim's parked counts.
func (a *Agent) PendingPackets() int { return a.k.PendingPackets() }

// integrate applies a decoded update and reacts: FIB programming,
// triggered-update propagation.
func (a *Agent) integrate(msg Message, via netsim.Medium) {
	node := a.k.Node()
	now := node.Now()
	cost := uint32(1)
	if a.cfg.LinkCost != nil {
		cost = a.cfg.LinkCost(via)
	}
	res := a.table.ApplyCost(msg, via, now, cost)
	if res.Changed {
		a.stats.RouteChanges++
	}
	for _, dest := range res.Installed {
		r := a.table.Get(dest)
		if r != nil && !r.Local && r.Metric < a.table.Infinity() {
			node.SetRoute(dest, r.Via, r.NextHop)
			if a.OnRouteChange != nil {
				a.OnRouteChange(dest, r.Metric, true)
			}
		}
	}
	for _, dest := range res.Unreachable {
		delete(node.FIB, dest)
		if a.OnRouteChange != nil {
			a.OnRouteChange(dest, a.table.Infinity(), false)
		}
	}
	if !a.cfg.Profile.TriggeredUpdates {
		return
	}
	// §3 step 4: an incoming triggered update that changes the table, or
	// any worsening, provokes our own triggered update ("the first
	// triggered update results in a wave of triggered updates").
	if (msg.Triggered && res.Changed) || res.Worsened {
		a.triggerUpdate()
	}
}

// triggerUpdate sends a rate-limited triggered update.
func (a *Agent) triggerUpdate() {
	now := a.k.Node().Now()
	if now-a.lastTrig < a.cfg.TriggerHoldoff {
		return
	}
	a.lastTrig = now
	a.sendUpdate(true, a.cfg.TriggeredResetsTimer)
}

// sweep is the periodic route-aging housekeeping body; the kernel
// schedules it every Profile.Period.
func (a *Agent) sweep() {
	node := a.k.Node()
	now := node.Now()
	timeout := a.cfg.Profile.TimeoutFactor * a.cfg.Profile.Period
	gc := a.cfg.Profile.GCFactor * a.cfg.Profile.Period
	unreachable, deleted := a.table.Expire(now, timeout, gc)
	a.stats.ExpiredRoutes += uint64(len(unreachable))
	a.stats.DeletedRoutes += uint64(len(deleted))
	for _, dest := range unreachable {
		delete(node.FIB, dest)
		if a.OnRouteChange != nil {
			a.OnRouteChange(dest, a.table.Infinity(), false)
		}
	}
	if len(unreachable) > 0 && a.cfg.Profile.TriggeredUpdates {
		a.triggerUpdate()
	}
}

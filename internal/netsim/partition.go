package netsim

import (
	"fmt"
	"math"

	"routesync/internal/des"
)

// This file implements parallel execution for the network simulator: the
// topology is split into K logical processes (LPs), each owning a subset
// of nodes and running its own des.Simulator, and one coordinator loop
// advances them together in rounds. The propagation Delay of every
// cross-partition link bounds the lookahead L: a packet transmitted at t
// cannot reach another LP before t+L.
//
// One round, in both synchronization modes:
//
//  1. t_start is the globally earliest pending event. Each LP's bound is
//     min(t_start + lease, horizon). Only LPs with an event before their
//     bound do work; in optimistic mode each of them checkpoints first.
//     An idle LP's last event precedes t_start, so it can never roll
//     back and needs no checkpoint. When at most one LP has work the
//     coordinator runs it on its own goroutine; otherwise the workers do.
//  2. The commit bound T_c is the minimum over all undelivered boundary
//     arrivals and all pending events: nothing at or after T_c is final,
//     everything before it is. Since L > 0, T_c > t_start and every round
//     makes progress.
//  3. LPs whose last executed event is at or past T_c roll back: restore
//     the checkpoint and deterministically replay to T_c. Replay
//     regenerates exactly the boundary sends the discarded execution
//     produced before T_c (the keyed (at, key, seq) event order makes it
//     bit-identical), and boundary sends wait in the sender's outbox
//     until the barrier, so speculative sends simply never reappear.
//  4. The other LPs move their clocks to T_c, leases adapt (shrink on
//     rollback, grow on a clean round, within [L, leaseMaxL·L]), the
//     round is counted and boundary arrivals are exchanged.
//
// A conservative round is the special case whose lease is pinned at L
// (a YAWNS-style window): every arrival lands at or after t_start + L,
// so no LP ever runs past T_c, and a rollback there panics. An
// optimistic lease starts at 64·L and stretches toward the real traffic
// gap; bounding it bounds the rollback depth, the cascade-stability
// condition of Manita & Simonot.
//
// Safety: arrivals delivered at a barrier never land in any LP's past.
// Every committed event executed before T_c; a boundary send it produced
// was in some outbox when T_c was computed, so its arrival time is at
// least T_c; and every LP's clock sits exactly at T_c at the exchange.
//
// Determinism: every event carries a (origin node, origin sequence) key
// (see Node.nextKey) and des orders equal-time events by key, so the
// execution order inside any LP is a pure function of the simulated
// system — boundary arrivals injected at a barrier order exactly as the
// same arrivals scheduled directly in a sequential run. Random draws,
// packet ids and counters are all per-node or per-partition, so a
// partitioned run is bit-identical to the sequential run for any K and
// either mode.

// boundaryEvent is a packet arrival whose receiver is owned by another
// logical process. It carries the des ordering key drawn at transmission
// time, so the receiving LP schedules it exactly as a sequential run
// would have.
type boundaryEvent struct {
	at   float64
	key  uint64
	pkt  *Packet
	dst  *Node
	link *Link
}

// windowCmd is one coordinator→LP instruction: run strictly before the
// LP's bound, or through it for the final horizon pass, after which the
// worker exits. save first checkpoints the logical process (optimistic
// speculation); rollback first restores the round-start checkpoint,
// turning the run into a deterministic replay up to the commit bound.
type windowCmd struct {
	final    bool
	save     bool
	rollback bool
}

// arrival is a pooled boundary-arrival slot: the event payload plus a
// closure allocated once per slot, so scheduling a cross-partition
// delivery never allocates at steady state. The closure recycles its own
// slot after firing.
type arrival struct {
	e  boundaryEvent
	fn func()
}

// partition is one logical process: a node subset on a private simulator
// with private counters, a private packet pool, and a private outbox of
// boundary arrivals.
type partition struct {
	idx   int
	sim   *des.Simulator
	nodes []*Node
	count counterSet
	net   *Network
	// pool is this logical process's packet slot pool (see pktpool.go).
	pool pktPool
	// outbox collects boundary arrivals produced while this partition
	// executes a window; only this partition's goroutine (or the
	// single-threaded setup phase) appends, and only the coordinator
	// drains it, strictly after the window barrier. The backing array is
	// reused across windows (drained to [:0], never reallocated).
	outbox []boundaryEvent
	// arrFree is the free list of arrival slots scheduled into this
	// partition's simulator; arrLive counts slots scheduled but not yet
	// fired. The coordinator pops slots between windows and each slot's
	// own firing (on this partition's goroutine) pushes it back — both
	// sides are ordered by the window barrier, so no lock is needed.
	arrFree []*arrival
	arrLive int
	// start carries window commands to this partition's worker goroutine;
	// runFn is the worker body. Both are created once at Partition so a
	// RunUntil call allocates neither channels nor closures.
	start chan windowCmd
	runFn func()
	// lease is how far past the round start this LP may run (pinned at
	// the lookahead in conservative mode); bound is the time the current
	// command runs to, and run marks the LPs the command applies to.
	lease float64
	bound float64
	run   bool

	// Optimistic-mode state (see optimistic.go). ckp/snap are the
	// round-start checkpoint of the simulator and of this LP's netsim
	// state; chk holds component checkpoint hooks (RegisterCheckpoint);
	// allArr registers every arrival slot ever minted so a rollback can
	// restore slots recycled by speculatively fired arrivals;
	// ownedLinks/ownedLANs are the media directions this LP checkpoints,
	// precomputed at Partition.
	ckp        des.Checkpoint
	snap       lpSnap
	chk        []Checkpointable
	allArr     []*arrival
	ownedLinks []ownedLinkDir
	ownedLANs  []*LAN
}

// ownedLinkDir is one link transmit direction owned by a logical process
// (the direction whose sender the LP owns).
type ownedLinkDir struct {
	l *Link
	d int
}

func (p *partition) send(e boundaryEvent) { p.outbox = append(p.outbox, e) }

// getArrival pops a free arrival slot, or mints one (with its hoisted
// firing closure) when the pool is empty. Called only by the coordinator
// between windows.
func (p *partition) getArrival() *arrival {
	p.arrLive++
	if k := len(p.arrFree); k > 0 {
		ar := p.arrFree[k-1]
		p.arrFree = p.arrFree[:k-1]
		return ar
	}
	ar := &arrival{}
	ar.fn = func() {
		e := ar.e
		ar.e = boundaryEvent{}
		p.arrFree = append(p.arrFree, ar)
		p.arrLive--
		e.link.deliverTo(e.dst, e.pkt)
	}
	p.allArr = append(p.allArr, ar)
	return ar
}

// Partition splits the network into k logical processes. owner maps every
// node id to its partition index in [0, k). It must be called after the
// topology is built but before any events are scheduled; agents and
// workloads attached afterwards schedule through their nodes and land on
// the owning partition's simulator automatically.
//
// WithSyncMode selects the synchronization mode; without it the
// ROUTESYNC_SYNC_MODE environment variable decides, defaulting to
// conservative.
//
// Constraints checked here:
//   - every LAN must be wholly inside one partition (broadcast delivery
//     is synchronous within a segment);
//   - every link between partitions must have Delay > 0 — that delay is
//     the lookahead every round's progress is built on.
func (n *Network) Partition(k int, owner func(NodeID) int, opts ...PartitionOption) {
	if k < 1 {
		panic("netsim: Partition needs k >= 1")
	}
	if n.parts != nil {
		panic("netsim: network is already partitioned")
	}
	if n.Sim.Pending() > 0 {
		panic("netsim: Partition called with events already scheduled; partition before attaching agents and workloads")
	}
	po := partitionOpts{mode: DefaultSyncMode()}
	for _, opt := range opts {
		opt(&po)
	}
	parts := make([]*partition, k)
	for i := range parts {
		sim := des.New()
		if n.obs != nil {
			sim.SetObserver(n.obs)
		}
		p := &partition{idx: i, sim: sim, net: n, start: make(chan windowCmd)}
		p.runFn = func() {
			for {
				cmd := <-p.start
				p.exec(cmd)
				n.wdone.Done()
				if cmd.final {
					return
				}
			}
		}
		parts[i] = p
	}
	for _, nd := range n.nodes {
		o := owner(nd.ID)
		if o < 0 || o >= k {
			panic(fmt.Sprintf("netsim: owner(%d) = %d out of range [0,%d)", nd.ID, o, k))
		}
		nd.part = parts[o]
		parts[o].nodes = append(parts[o].nodes, nd)
	}
	// Validate media against the assignment and derive the lookahead.
	lookahead := math.Inf(1)
	seen := make(map[Medium]bool)
	for _, nd := range n.nodes {
		for _, m := range nd.media {
			if seen[m] {
				continue
			}
			seen[m] = true
			switch med := m.(type) {
			case *Link:
				if med.ends[0].part != med.ends[1].part {
					if med.cfg.Delay <= 0 {
						panic(fmt.Sprintf("netsim: link %v—%v crosses partitions with zero delay; partitioning needs Delay > 0 for lookahead",
							med.ends[0], med.ends[1]))
					}
					lookahead = min(lookahead, med.cfg.Delay)
				}
			case *LAN:
				p0 := med.members[0].part
				for _, mem := range med.members[1:] {
					if mem.part != p0 {
						panic(fmt.Sprintf("netsim: LAN spans partitions (members %v and %v); keep each LAN inside one partition",
							med.members[0], mem))
					}
				}
			}
		}
	}
	n.parts = parts
	n.lookahead = lookahead
	n.syncStats.Mode = po.mode
	n.leases = leaseSchedule(po.mode, lookahead)
	for _, p := range parts {
		p.lease = n.leases.initial
		p.pool.track = po.mode == SyncOptimistic
	}
	if po.mode == SyncOptimistic && k > 1 {
		n.initSnapshots()
	}
}

// NumPartitions returns the number of logical processes (0 while
// unpartitioned).
func (n *Network) NumPartitions() int { return len(n.parts) }

// PartitionOf returns the partition index owning the node, or -1 while
// unpartitioned.
func (n *Network) PartitionOf(id NodeID) int {
	nd := n.Node(id)
	if nd.part == nil {
		return -1
	}
	return nd.part.idx
}

// Lookahead returns the conservative synchronization window: the minimum
// propagation delay across partition-crossing links (+Inf when no link
// crosses, i.e. the partitions are independent, and every round runs to
// the horizon).
func (n *Network) Lookahead() float64 { return n.lookahead }

// exchange drains every partition's outbox into the receiving partitions'
// simulators. Called only from the coordinator, strictly between windows
// (or during single-threaded setup/teardown), so no partition goroutine
// is running. Insertion order is irrelevant: the carried keys give
// boundary arrivals their sequential-run order. Each arrival rides a
// pooled slot with a pre-built closure, and the outbox is drained in
// place, so a steady-state window exchanges its whole batch without
// allocating.
func (n *Network) exchange() {
	for _, p := range n.parts {
		for i := range p.outbox {
			e := p.outbox[i]
			dp := e.dst.part
			if p.pool.track && e.pkt.pooled && e.pkt.regIdx >= 0 {
				// The packet changes logical process: move its live-registry
				// membership to the receiver so the receiver's rollback
				// snapshots cover it from here on.
				p.pool.regRemove(e.pkt)
				e.pkt.regIdx = int32(len(dp.pool.live))
				dp.pool.live = append(dp.pool.live, e.pkt)
			}
			ar := dp.getArrival()
			ar.e = e
			dp.sim.ScheduleKeyed(e.at, e.key, "boundary-arrival", ar.fn)
			p.outbox[i] = boundaryEvent{} // drop the packet reference
		}
		p.outbox = p.outbox[:0]
	}
	// Window barriers are also when released slots that drifted across
	// partitions go home (see pktPool.repatriate), killing the structural
	// alloc floor one-way cross-boundary flows would otherwise build.
	for _, p := range n.parts {
		p.pool.repatriate()
	}
}

// exec runs one command on this logical process, on whichever goroutine
// the coordinator chose (see runLPs).
func (p *partition) exec(cmd windowCmd) {
	if cmd.save {
		p.saveRound()
	}
	if cmd.rollback {
		p.restoreRound()
	}
	if cmd.final {
		p.sim.RunUntil(p.bound)
	} else {
		p.sim.RunBefore(p.bound)
	}
}

// runLPs executes cmd on the count logical processes marked run. At most
// one is run on the coordinator's own goroutine — waking the workers
// would cost more than the work — and the result reports that case;
// otherwise each marked LP's worker runs it in parallel. The coordinator
// may touch a worker's LP while the worker is parked at its channel
// receive: the send orders the coordinator's writes before the worker's
// reads, and wdone.Wait orders every worker's writes before the
// coordinator continues.
func (n *Network) runLPs(cmd windowCmd, count int) (inline bool) {
	if count <= 1 {
		for _, p := range n.parts {
			if p.run {
				p.exec(cmd)
			}
		}
		return true
	}
	n.wdone.Add(count)
	for _, p := range n.parts {
		if p.run {
			p.start <- cmd
		}
	}
	n.wdone.Wait()
	return false
}

// runPartitioned advances all logical processes to the horizon in rounds
// (see the top of this file). Workers are spawned per call from
// per-partition bodies built at Partition time and exit after the final
// pass, so a network never retains goroutines between runs, and a
// steady-state call allocates nothing (checkpoints reuse per-LP buffers).
func (n *Network) runPartitioned(horizon float64) {
	if n.Sim.Pending() > 0 {
		panic("netsim: events pending on the root simulator of a partitioned network; schedule runtime events through nodes")
	}
	// Boundary arrivals produced at the very end of a previous call (by
	// events firing exactly at that call's horizon) are still in the
	// outboxes; deliver them before planning rounds.
	n.exchange()

	if len(n.parts) == 1 {
		// One LP: no boundaries, no goroutines — this is exactly the
		// sequential execution on a private simulator.
		n.parts[0].sim.RunUntil(horizon)
		return
	}

	for _, p := range n.parts {
		go p.runFn()
	}

	optimistic := n.syncStats.Mode == SyncOptimistic
	st := &n.syncStats
	for {
		tstart := math.Inf(1)
		for _, p := range n.parts {
			tstart = min(tstart, p.sim.NextAt())
		}
		if tstart >= horizon {
			break
		}

		// Run every LP with work to its bound. Strictly-before execution:
		// an event exactly at the bound must order against boundary
		// arrivals landing there, which are only delivered at the barrier.
		active, maxBound := 0, tstart
		for _, p := range n.parts {
			p.bound = min(tstart+p.lease, horizon)
			maxBound = max(maxBound, p.bound)
			p.run = p.sim.NextAt() < p.bound
			if p.run {
				active++
			}
		}
		if n.runLPs(windowCmd{save: optimistic}, active) {
			st.InlineWindows++
			if n.inlineObs != nil {
				n.inlineObs.InlineWindow()
			}
		}

		// Commit bound: the earliest timestamp a not-yet-delivered
		// boundary arrival or unexecuted event could still touch.
		tc := horizon
		for _, p := range n.parts {
			for i := range p.outbox {
				tc = min(tc, p.outbox[i].at)
			}
			tc = min(tc, p.sim.NextAt())
		}

		// Roll back the LPs that executed at or past the commit bound
		// (depth is read before the replay moves LastFired back) and
		// shrink their leases; the rest move their clocks there and grow
		// theirs.
		rolled, depth := 0, 0.0
		for _, p := range n.parts {
			d := p.sim.LastFired() - tc
			p.run = d >= 0
			if p.run {
				rolled++
				st.TotalRollbackDepth += d
				depth = max(depth, d)
				p.bound = tc
				p.lease = max(p.lease*leaseShrink, n.leases.min)
			} else {
				p.sim.SyncClock(tc)
				p.lease = min(p.lease*leaseGrow, n.leases.max)
			}
		}
		if rolled > 0 {
			if !optimistic {
				panic(fmt.Sprintf("netsim: conservative round ran past its commit bound %v; the lookahead invariant is broken", tc))
			}
			n.runLPs(windowCmd{rollback: true}, rolled)
		}
		lag := max(maxBound-tc, 0)
		st.Windows++
		st.Rollbacks += uint64(rolled)
		st.MaxRollbackDepth = max(st.MaxRollbackDepth, depth)
		st.MaxGVTLag = max(st.MaxGVTLag, lag)
		if n.syncObs != nil {
			n.syncObs.SyncWindow(tc, lag, rolled, depth)
		}
		n.exchange()
	}

	// Final pass, on every worker (there are at least two, so none is run
	// inline and each exits after it): execute events exactly at the
	// horizon and leave every clock there. Their boundary sends arrive
	// strictly later and stay queued for the next call.
	for _, p := range n.parts {
		p.bound, p.run = horizon, true
	}
	n.runLPs(windowCmd{final: true}, len(n.parts))
	st.Windows++
	if n.syncObs != nil {
		n.syncObs.SyncWindow(horizon, 0, 0, 0)
	}
	n.exchange()
}

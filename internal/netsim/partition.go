package netsim

import (
	"fmt"
	"math"

	"routesync/internal/des"
)

// This file implements conservative parallel execution for the network
// simulator: the topology is split into K logical processes (LPs), each
// owning a subset of nodes and running its own des.Simulator, and the LPs
// advance together in bounded time windows (a barrier/YAWNS-style
// scheme). The propagation Delay of every cross-partition link is the
// lookahead: a packet transmitted during a window [W, W+L) cannot arrive
// at another LP before W+L, so each LP may run the whole window without
// hearing from its peers, and boundary arrivals are exchanged at the
// barrier.
//
// Determinism: every event carries a (origin node, origin sequence) key
// (see Node.nextKey) and des orders equal-time events by key, so the
// execution order inside any LP is a pure function of the simulated
// system — boundary arrivals injected at a barrier order exactly as the
// same arrivals scheduled directly in a sequential run. Random draws,
// packet ids and counters are all per-node or per-partition, so a
// partitioned run is bit-identical to the sequential run for any K.

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

// windowCmd is one coordinator→worker instruction: run a window to wend
// (strictly before, or inclusive for the final horizon pass), or quit.
// save first checkpoints the logical process (optimistic speculation);
// rollback first restores the round-start checkpoint, turning the window
// into a deterministic replay up to the commit bound.
type windowCmd struct {
	wend      float64
	inclusive bool
	quit      bool
	save      bool
	rollback  bool
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

	// Optimistic-mode state (see optimistic.go). ckp/snap are the
	// round-start checkpoint of the simulator and of this LP's netsim
	// state; chk holds component checkpoint hooks (RegisterCheckpoint);
	// allArr registers every arrival slot ever minted so a rollback can
	// restore slots recycled by speculatively fired arrivals; lease is
	// the adaptive speculation bound and rolled the current round's
	// rollback flag; ownedLinks/ownedLANs are the media directions this
	// LP checkpoints, precomputed at Partition.
	ckp        des.Checkpoint
	snap       lpSnap
	chk        []Checkpointable
	allArr     []*arrival
	lease      float64
	rolled     bool
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
// Options select the synchronization mode (WithSyncMode, WithOptimistic);
// without one the ROUTESYNC_SYNC_MODE environment variable decides,
// defaulting to conservative.
//
// Constraints checked here:
//   - every LAN must be wholly inside one partition (broadcast delivery
//     is synchronous within a segment);
//   - in conservative mode, every link between partitions must have
//     Delay > 0 — that delay is the lookahead the bounded-window advance
//     is built on. Optimistic mode accepts zero-delay boundary links
//     (same-instant cross-LP cascades are resolved serially).
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
		sim := des.NewBackend(n.Sim.Backend())
		if n.obs != nil {
			sim.SetObserver(n.obs)
		}
		p := &partition{idx: i, sim: sim, net: n, start: make(chan windowCmd)}
		p.runFn = func() {
			for {
				cmd := <-p.start
				if cmd.quit {
					n.wdone.Done()
					return
				}
				if cmd.save {
					p.saveRound()
				}
				if cmd.rollback {
					p.restoreRound()
				}
				if cmd.inclusive {
					p.sim.RunUntil(cmd.wend)
				} else {
					p.sim.RunBefore(cmd.wend)
				}
				n.wdone.Done()
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
					if med.cfg.Delay <= 0 && po.mode == SyncConservative {
						panic(fmt.Sprintf("netsim: link %v—%v crosses partitions with zero delay; conservative mode needs Delay > 0 for lookahead (optimistic mode accepts zero-delay boundary links)",
							med.ends[0], med.ends[1]))
					}
					if med.cfg.Delay < lookahead {
						lookahead = med.cfg.Delay
					}
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
	if po.mode == SyncOptimistic {
		n.optCfg = po.opt.withDefaults(lookahead)
		for _, p := range parts {
			p.pool.track = true
			p.lease = n.optCfg.InitialLease
		}
		if k > 1 {
			n.initSnapshots()
		}
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
// crosses, i.e. the partitions are independent).
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

// runWindow runs one synchronized window on every worker: signal all
// partitions, then wait for all to finish. The coordinator writes the
// command before the channel send, which orders it ahead of the worker's
// read; wdone.Wait orders every worker's writes before the coordinator
// continues.
func (n *Network) runWindow(cmd windowCmd) {
	n.wdone.Add(len(n.parts))
	for _, p := range n.parts {
		p.start <- cmd
	}
	n.wdone.Wait()
}

// activeBefore counts the logical processes with an event before wend.
func (n *Network) activeBefore(wend float64) int {
	active := 0
	for _, p := range n.parts {
		if p.sim.NextAt() < wend {
			active++
		}
	}
	return active
}

// runPartitioned advances all logical processes to the horizon with
// bounded-window barrier synchronization. Workers are spawned per call
// from per-partition bodies built at Partition time and told to quit
// after the final window, so a network never retains goroutines between
// runs and a steady-state call allocates nothing.
func (n *Network) runPartitioned(horizon float64) {
	if n.Sim.Pending() > 0 {
		panic("netsim: events pending on the root simulator of a partitioned network; schedule runtime events through nodes")
	}
	// Boundary arrivals produced at the very end of a previous call (by
	// events firing exactly at that call's horizon) are still in the
	// outboxes; deliver them before planning windows.
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

	if n.syncStats.Mode == SyncOptimistic {
		n.runOptimistic(horizon)
		return
	}

	for {
		// The next window starts at the globally earliest pending event.
		next := math.Inf(1)
		for _, p := range n.parts {
			if at := p.sim.NextAt(); at < next {
				next = at
			}
		}
		if next >= horizon {
			break
		}
		wend := horizon
		if w := next + n.lookahead; w < horizon {
			wend = w
		}
		// Strictly-before execution: an event exactly at wend must order
		// against boundary arrivals landing at wend, which are only
		// delivered at the barrier below.
		if n.activeBefore(wend) > 1 {
			n.runWindow(windowCmd{wend: wend})
		} else {
			// At most one LP has work: waking the workers would cost
			// more than the window, so the coordinator runs it. The
			// other LPs only advance their clocks.
			for _, p := range n.parts {
				p.sim.RunBefore(wend)
			}
			n.syncStats.InlineWindows++
			if n.inlineObs != nil {
				n.inlineObs.InlineWindow()
			}
		}
		n.syncStats.Windows++
		if n.syncObs != nil {
			n.syncObs.SyncWindow(wend, 0, 0, 0)
		}
		n.exchange()
	}
	// Inclusive pass: execute events exactly at the horizon and leave
	// every clock there. Boundary arrivals they produce land at
	// > horizon (positive delay) and stay queued for the next call.
	n.runWindow(windowCmd{wend: horizon, inclusive: true})
	n.syncStats.Windows++
	if n.syncObs != nil {
		n.syncObs.SyncWindow(horizon, 0, 0, 0)
	}
	n.runWindow(windowCmd{quit: true})
	n.exchange()
}

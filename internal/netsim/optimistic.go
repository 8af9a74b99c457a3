package netsim

import (
	"fmt"
	"math"
)

// This file implements optimistic (Time-Warp-style) parallel execution.
// Where the conservative coordinator (partition.go) holds every logical
// process inside a lookahead-bounded window, the optimistic one lets each
// LP speculate up to an adaptive lease past the round start, then commits
// the prefix no straggler can reach and rolls back only the LPs that
// overshot it:
//
//  1. Round start: t_start is the globally earliest pending event. Every
//     LP checkpoints (simulator + netsim state + registered components)
//     and runs strictly before min(t_start + lease, horizon).
//  2. Commit bound: T_c = min over all undelivered boundary arrivals and
//     all pending events — nothing at or after T_c is final, everything
//     before it is. With positive-delay boundary links T_c > t_start, so
//     every round makes progress.
//  3. LPs whose last executed event is at or past T_c roll back: restore
//     the checkpoint and deterministically replay to T_c. Replay
//     regenerates exactly the boundary sends the pre-rollback execution
//     produced before T_c (the keyed (at, key, seq) event order makes the
//     replay bit-identical), so speculative sends at or past T_c simply
//     never reappear in the outbox — anti-messages by reconstruction,
//     with nothing to annihilate at the receiver because boundary sends
//     quarantine in the sender's outbox until the barrier.
//  4. The other LPs park their clocks at T_c, arrivals are exchanged,
//     and leases adapt: shrink on rollback, grow on a clean round. The
//     floor is the conservative window, so adversarial straggler
//     schedules degrade to conservative performance, and the rollback
//     depth is bounded by the lease by construction (the cascade
//     stability condition of Manita & Simonot).
//
// Zero-delay boundary links make T_c == t_start possible (a same-instant
// cross-LP cascade). The coordinator then rolls every fired LP back to
// the round start and executes that single instant serially, picking the
// globally minimal (time, key) event across LPs and exchanging arrivals
// after every step — exactly the sequential order, at sequential speed,
// for that instant only.
//
// Safety: arrivals delivered at a barrier can never land in any LP's
// past. Every committed event executed before T_c; a boundary send it
// produced was in some outbox when T_c was computed, so its arrival time
// is at least T_c; and every LP's clock is parked exactly at T_c when
// the exchange happens.

// runOptimistic advances all logical processes to the horizon by
// speculate/commit/rollback rounds. Workers are already spawned by
// runPartitioned; a steady-state round allocates nothing (checkpoints
// reuse per-LP buffers).
func (n *Network) runOptimistic(horizon float64) {
	leases := &n.leases
	for {
		// Round start: the globally earliest pending event.
		tstart := math.Inf(1)
		for _, p := range n.parts {
			if at := p.sim.NextAt(); at < tstart {
				tstart = at
			}
		}
		if tstart >= horizon {
			break
		}

		// Speculate: checkpoint every LP, then run it to its private
		// lease bound, in parallel.
		n.wdone.Add(len(n.parts))
		maxBound := tstart
		for _, p := range n.parts {
			bound := tstart + p.lease
			if bound > horizon {
				bound = horizon
			}
			if bound > maxBound {
				maxBound = bound
			}
			p.start <- windowCmd{wend: bound, save: true}
		}
		n.wdone.Wait()

		// Commit bound: the earliest timestamp a not-yet-delivered
		// boundary arrival or unexecuted event could still touch.
		tc := horizon
		for _, p := range n.parts {
			for i := range p.outbox {
				if at := p.outbox[i].at; at < tc {
					tc = at
				}
			}
			if at := p.sim.NextAt(); at < tc {
				tc = at
			}
		}

		// Roll back LPs that executed at or past the commit bound; the
		// rest just park their clocks there. Restore + replay runs in
		// parallel on the worker goroutines.
		rolled := 0
		var roundDepth float64
		for _, p := range n.parts {
			p.rolled = p.sim.LastFired() >= tc
			if p.rolled {
				rolled++
				// Depth must be read before the rollback replay moves
				// LastFired back to the committed prefix.
				d := p.sim.LastFired() - tc
				n.syncStats.TotalRollbackDepth += d
				if d > roundDepth {
					roundDepth = d
				}
			}
		}
		if rolled > 0 {
			n.wdone.Add(rolled)
			for _, p := range n.parts {
				if p.rolled {
					p.start <- windowCmd{wend: tc, rollback: true}
				}
			}
			n.wdone.Wait()
		}
		for _, p := range n.parts {
			if !p.rolled && p.sim.Now() != tc {
				p.sim.SyncClock(tc)
			}
		}

		// T_c == t_start means a zero-delay boundary send at the round
		// start erased all progress: resolve that instant serially.
		if tc == tstart {
			n.serialInstant(tc)
		}

		// Adapt leases and account the round.
		for _, p := range n.parts {
			if p.rolled {
				p.lease *= leaseShrink
				if p.lease < leases.min {
					p.lease = leases.min
				}
			} else {
				p.lease *= leaseGrow
				if p.lease > leases.max {
					p.lease = leases.max
				}
			}
		}
		lag := maxBound - tc
		n.syncStats.Windows++
		n.syncStats.Rollbacks += uint64(rolled)
		if roundDepth > n.syncStats.MaxRollbackDepth {
			n.syncStats.MaxRollbackDepth = roundDepth
		}
		if lag > n.syncStats.MaxGVTLag {
			n.syncStats.MaxGVTLag = lag
		}
		if n.syncObs != nil {
			n.syncObs.SyncWindow(tc, lag, rolled, roundDepth)
		}
		n.exchange()
	}

	// Final pass: execute events exactly at the horizon and leave every
	// clock there. With positive lookahead their boundary sends arrive
	// strictly later and stay queued for the next call, exactly like the
	// conservative inclusive pass; with zero-delay boundary links the
	// horizon instant itself can cascade across LPs and runs serially.
	if n.lookahead > 0 {
		n.runWindow(windowCmd{wend: horizon, inclusive: true})
	} else {
		n.serialInstant(horizon)
		for _, p := range n.parts {
			if p.sim.Now() != horizon {
				p.sim.SyncClock(horizon)
			}
		}
	}
	n.syncStats.Windows++
	if n.syncObs != nil {
		n.syncObs.SyncWindow(horizon, 0, 0, 0)
	}
	n.runWindow(windowCmd{quit: true})
	n.exchange()
}

// serialInstant executes every event with timestamp exactly t, across all
// logical processes, in global (time, key) order on the coordinator
// goroutine, exchanging boundary arrivals after any step that produced
// them — the sequential tie-break order, reproduced exactly. Workers are
// parked at their channel receive, so the coordinator may touch their
// simulators: the preceding wdone.Wait ordered their writes before this,
// and the next command send orders these writes before theirs.
func (n *Network) serialInstant(t float64) {
	for {
		var best *partition
		var bestKey uint64
		for _, p := range n.parts {
			at, key, ok := p.sim.NextOrd()
			if ok && at == t && (best == nil || key < bestKey) {
				best, bestKey = p, key
			}
		}
		if best == nil {
			return
		}
		best.sim.Step()
		n.syncStats.SerialEvents++
		if len(best.outbox) > 0 {
			n.exchange()
		}
	}
}

// lpSnap is the reusable netsim-side checkpoint of one logical process:
// everything events can mutate that the des.Checkpoint does not cover.
// Buffers are reused across rounds; a warm snapshot allocates nothing.
type lpSnap struct {
	count counterSet
	nodes []nodeSnap
	links []linkDirSnap
	lans  []lanSnap
	pool  poolSnap
	// arrival-slot state: arrEvents[i] shadows allArr[i].e, and
	// arrFree/arrLive shadow the slot free list.
	arrEvents []boundaryEvent
	arrFree   []*arrival
	arrLive   int
}

// nodeSnap shadows one node's mutable state.
type nodeSnap struct {
	nd        *Node
	fib       map[NodeID]Egress
	failed    bool
	lossProb  float64
	evSeq     uint64
	pktSeq    uint64
	rndState  int64
	stats     nodeCount
	onRouting func(*Packet, Medium)
	// CPU state (unused when the node has no CPU).
	cpuBusyUntil float64
	cpuTotalBusy float64
	cpuQueue     []*Packet
	cpuSteps     []*Packet
}

// linkDirSnap shadows one owned link transmit direction plus the owning
// endpoint's view of the link state.
type linkDirSnap struct {
	l         *Link
	d         int
	busy      bool
	queue     []*Packet
	inflight  []*Packet
	txPackets uint64
	txBytes   uint64
	down      bool
	cost      uint32
}

// lanSnap shadows one wholly-owned LAN: the segment flag plus every
// member transmitter, in member order.
type lanSnap struct {
	l    *LAN
	down bool
	tx   []lanTxSnap
}

type lanTxSnap struct {
	busy     bool
	queue    []lanFrame
	inflight []lanFrame
}

// poolSnap shadows the LP's packet pool: the free list (slot pointers +
// generations) and the full contents of every live packet. The foreign
// list is always empty at round start (the preceding exchange
// repatriated it).
type poolSnap struct {
	created  uint64
	free     []*Packet
	freeGens []uint32
	live     []pktSnap
	scratch  []*Packet // rollback mark-and-sweep scratch
}

// pktSnap is one live packet's full contents. hops/payload are per-entry
// reused buffers.
type pktSnap struct {
	pkt         *Packet
	id          uint64
	kind        Kind
	src, dst    NodeID
	size, ttl   int
	created     float64
	seq         int64
	recordRoute bool
	gen         uint32
	hops        []Hop
	payload     []byte
	hasPayload  bool
}

// initSnapshots precomputes, for every partition, the media state it
// owns — link directions whose sender it owns, LANs it wholly owns —
// and sizes the per-node snapshot slots, so per-round checkpoints walk
// flat slices.
func (n *Network) initSnapshots() {
	seen := make(map[Medium]bool)
	for _, nd := range n.nodes {
		for _, m := range nd.media {
			if seen[m] {
				continue
			}
			seen[m] = true
			switch med := m.(type) {
			case *Link:
				for d := range med.ends {
					p := med.ends[d].part
					p.ownedLinks = append(p.ownedLinks, ownedLinkDir{l: med, d: d})
				}
			case *LAN:
				p := med.members[0].part
				p.ownedLANs = append(p.ownedLANs, med)
			}
		}
	}
	for _, p := range n.parts {
		s := &p.snap
		s.nodes = make([]nodeSnap, len(p.nodes))
		for i, nd := range p.nodes {
			s.nodes[i].nd = nd
			s.nodes[i].fib = make(map[NodeID]Egress, len(nd.FIB))
		}
		s.links = make([]linkDirSnap, len(p.ownedLinks))
		for i, od := range p.ownedLinks {
			s.links[i].l = od.l
			s.links[i].d = od.d
		}
		s.lans = make([]lanSnap, len(p.ownedLANs))
		for i, lan := range p.ownedLANs {
			s.lans[i].l = lan
			s.lans[i].tx = make([]lanTxSnap, len(lan.members))
		}
	}
}

// saveRound checkpoints this logical process at a round boundary: the
// simulator (event queue, clock, slot generations) plus every piece of
// netsim state its events can mutate, plus registered component hooks.
// Runs on the partition's worker goroutine.
func (p *partition) saveRound() {
	p.sim.Save(&p.ckp)
	s := &p.snap
	s.count = p.count

	for i := range s.nodes {
		ns := &s.nodes[i]
		nd := ns.nd
		for k := range ns.fib {
			delete(ns.fib, k)
		}
		for k, v := range nd.FIB {
			ns.fib[k] = v
		}
		ns.failed = nd.failed
		ns.lossProb = nd.LossProb
		ns.evSeq = nd.evSeq
		ns.pktSeq = nd.pktSeq
		ns.rndState = nd.rnd.State()
		ns.stats = nd.stats
		ns.onRouting = nd.OnRouting
		if c := nd.CPU; c != nil {
			ns.cpuBusyUntil = c.busyUntil
			ns.cpuTotalBusy = c.TotalBusy
			ns.cpuQueue = append(ns.cpuQueue[:0], c.queue[c.qhead:]...)
			ns.cpuSteps = c.steps.snapshot(ns.cpuSteps)
		}
	}

	for i := range s.links {
		ls := &s.links[i]
		l, d := ls.l, ls.d
		st := &l.tx[d]
		ls.busy = st.busy
		ls.queue = append(ls.queue[:0], st.queue[st.qhead:]...)
		ls.inflight = st.inflight.snapshot(ls.inflight)
		ls.txPackets = l.txPackets[d]
		ls.txBytes = l.txBytes[d]
		ls.down = l.down[d]
		ls.cost = l.cost[d]
	}

	for i := range s.lans {
		lans := &s.lans[i]
		lan := lans.l
		lans.down = lan.down
		for j, mem := range lan.members {
			ts := &lans.tx[j]
			st := lan.tx[mem.ID]
			ts.busy = st.busy
			ts.queue = append(ts.queue[:0], st.queue[st.qhead:]...)
			ts.inflight = st.inflight.snapshot(ts.inflight)
		}
	}

	p.savePool()

	s.arrEvents = s.arrEvents[:0]
	for _, ar := range p.allArr {
		s.arrEvents = append(s.arrEvents, ar.e)
	}
	s.arrFree = append(s.arrFree[:0], p.arrFree...)
	s.arrLive = p.arrLive

	for _, c := range p.chk {
		c.SaveCheckpoint()
	}
}

// savePool snapshots the packet pool: free-slot generations and every
// live packet's contents.
func (p *partition) savePool() {
	pp := &p.pool
	s := &p.snap.pool
	if len(pp.foreign) != 0 {
		panic("netsim: foreign slots present at a round boundary")
	}
	s.created = pp.created
	s.free = append(s.free[:0], pp.free...)
	s.freeGens = s.freeGens[:0]
	for _, pkt := range pp.free {
		s.freeGens = append(s.freeGens, pkt.gen)
	}
	// Resize the live-snapshot slice without discarding the per-entry
	// hop/payload buffers of entries beyond the previous length.
	if m := len(pp.live); m <= cap(s.live) {
		s.live = s.live[:m]
	} else {
		s.live = append(s.live[:cap(s.live)], make([]pktSnap, m-cap(s.live))...)
	}
	for i, pkt := range pp.live {
		ps := &s.live[i]
		ps.pkt = pkt
		ps.id = pkt.ID
		ps.kind = pkt.Kind
		ps.src = pkt.Src
		ps.dst = pkt.Dst
		ps.size = pkt.Size
		ps.ttl = pkt.TTL
		ps.created = pkt.Created
		ps.seq = pkt.Seq
		ps.recordRoute = pkt.RecordRoute
		ps.gen = pkt.gen
		ps.hops = append(ps.hops[:0], pkt.Hops...)
		if pkt.Payload != nil {
			ps.hasPayload = true
			ps.payload = append(ps.payload[:0], pkt.Payload...)
		} else {
			ps.hasPayload = false
		}
	}
}

// restoreRound rolls this logical process back to its round-start
// checkpoint. After it returns, replaying the simulator to any bound at
// or below the round's commit time is bit-identical to an execution that
// never speculated past it. Runs on the partition's worker goroutine.
func (p *partition) restoreRound() {
	p.sim.Rewind(&p.ckp)
	s := &p.snap
	p.count = s.count

	for i := range s.nodes {
		ns := &s.nodes[i]
		nd := ns.nd
		for k := range nd.FIB {
			delete(nd.FIB, k)
		}
		for k, v := range ns.fib {
			nd.FIB[k] = v
		}
		nd.failed = ns.failed
		nd.LossProb = ns.lossProb
		nd.evSeq = ns.evSeq
		nd.pktSeq = ns.pktSeq
		nd.rnd.Seed(ns.rndState)
		nd.stats = ns.stats
		nd.OnRouting = ns.onRouting
		if c := nd.CPU; c != nil {
			c.busyUntil = ns.cpuBusyUntil
			c.TotalBusy = ns.cpuTotalBusy
			for j := range c.queue {
				c.queue[j] = nil
			}
			c.queue = append(c.queue[:0], ns.cpuQueue...)
			c.qhead = 0
			c.steps.restore(ns.cpuSteps)
		}
	}

	for i := range s.links {
		ls := &s.links[i]
		l, d := ls.l, ls.d
		st := &l.tx[d]
		st.busy = ls.busy
		for j := range st.queue {
			st.queue[j] = nil
		}
		st.queue = append(st.queue[:0], ls.queue...)
		st.qhead = 0
		st.inflight.restore(ls.inflight)
		l.txPackets[d] = ls.txPackets
		l.txBytes[d] = ls.txBytes
		l.down[d] = ls.down
		l.cost[d] = ls.cost
	}

	for i := range s.lans {
		lans := &s.lans[i]
		lan := lans.l
		lan.down = lans.down
		for j, mem := range lan.members {
			ts := &lans.tx[j]
			st := lan.tx[mem.ID]
			st.busy = ts.busy
			for k := range st.queue {
				st.queue[k] = lanFrame{}
			}
			st.queue = append(st.queue[:0], ts.queue...)
			st.qhead = 0
			st.inflight.restore(ts.inflight)
		}
	}

	p.restorePool()

	for i, ar := range p.allArr {
		ar.e = s.arrEvents[i]
	}
	p.arrFree = append(p.arrFree[:0], s.arrFree...)
	p.arrLive = s.arrLive

	// Speculative boundary sends are cancelled wholesale: the replay
	// regenerates exactly the committed ones.
	for i := range p.outbox {
		p.outbox[i] = boundaryEvent{}
	}
	p.outbox = p.outbox[:0]

	for _, c := range p.chk {
		c.RestoreCheckpoint()
	}
}

// restorePool rolls the packet pool back: live packets regain their
// saved contents and generations, free slots regain their generations
// (so a replay mints identical (slot, generation) pairs), and slots
// created during the speculation join the free list.
func (p *partition) restorePool() {
	pp := &p.pool
	s := &p.snap.pool
	// Mark every slot currently anywhere in the pool as unaccounted.
	sc := s.scratch[:0]
	for _, pkt := range pp.live {
		pkt.regIdx = -3
		sc = append(sc, pkt)
	}
	for _, pkt := range pp.free {
		pkt.regIdx = -3
		sc = append(sc, pkt)
	}
	for _, pkt := range pp.foreign {
		pkt.regIdx = -3
		sc = append(sc, pkt)
	}
	if len(sc) != len(s.free)+len(s.live)+int(pp.created-s.created) {
		panic(fmt.Sprintf("netsim: pool slot accounting broken on rollback: %d slots, %d saved free, %d saved live, %d minted",
			len(sc), len(s.free), len(s.live), pp.created-s.created))
	}
	// Saved free slots: restore generations and scrub any speculative
	// reuse (a dirty slot must not leak a payload into its next draw —
	// release scrubs, but these slots' releases are being undone).
	pp.free = pp.free[:0]
	for i, pkt := range s.free {
		pkt.gen = s.freeGens[i]
		pkt.live = false
		pkt.Payload = nil
		pkt.Hops = pkt.Hops[:0]
		pkt.regIdx = -1
		pp.free = append(pp.free, pkt)
	}
	// Saved live packets: restore full contents.
	pp.live = pp.live[:0]
	for i := range s.live {
		ps := &s.live[i]
		pkt := ps.pkt
		pkt.ID = ps.id
		pkt.Kind = ps.kind
		pkt.Src = ps.src
		pkt.Dst = ps.dst
		pkt.Size = ps.size
		pkt.TTL = ps.ttl
		pkt.Created = ps.created
		pkt.Seq = ps.seq
		pkt.RecordRoute = ps.recordRoute
		pkt.gen = ps.gen
		pkt.live = true
		pkt.Hops = append(pkt.Hops[:0], ps.hops...)
		if ps.hasPayload {
			pkt.SetPayload(ps.payload)
		} else {
			pkt.Payload = nil
		}
		pkt.regIdx = int32(len(pp.live))
		pp.live = append(pp.live, pkt)
	}
	// Sweep: still-marked slots were minted during the speculation;
	// handles to them live only in discarded state. They stay allocated
	// (created is not rolled back) and join the free list scrubbed.
	for i, pkt := range sc {
		if pkt.regIdx == -3 {
			pkt.regIdx = -1
			pkt.live = false
			pkt.gen++
			pkt.Payload = nil
			pkt.Hops = pkt.Hops[:0]
			pp.free = append(pp.free, pkt)
		}
		sc[i] = nil
	}
	s.scratch = sc[:0]
	pp.foreign = pp.foreign[:0]
}

package netsim

import "fmt"

// This file holds optimistic mode's rollback checkpoints: everything a
// logical process's events can mutate outside its des.Simulator, saved
// at the start of every round the LP runs and restored when the round's
// commit bound (see partition.go) falls behind the LP's last event.

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

package des

import (
	"fmt"
	"math"
)

// This file implements checkpoint/rewind for the event kernel — the
// primitive behind optimistic (Time-Warp-style) parallel execution in
// internal/netsim. A Checkpoint captures the complete simulator state at
// a quiescent point (between runs): the clock, the insertion-sequence and
// processed counters, the free list, the generation counter of every pool
// slot, and a flat copy of every pending event. Rewind restores all of it
// exactly:
//
//   - pending events return to their original pool slots with their saved
//     generations, so Event handles held in external state that was
//     checkpointed alongside the simulator (agent timers, workload
//     closures) remain valid after the rewind;
//   - slots that were free at the checkpoint get their saved generations
//     back, so re-running the same program after a rewind assigns the
//     same (slot, generation) pairs it would have the first time;
//   - slots created after the checkpoint join the free list — handles to
//     them live only in state the rewind discards.
//
// Replaying the same schedule/cancel program after a rewind is therefore
// bit-identical to never having run past the checkpoint: the (at, key,
// seq) order is restored verbatim and new insertions continue from the
// saved sequence counter. A Checkpoint owns reusable buffers — saving
// into the same Checkpoint every round allocates nothing once the buffers
// reach their high-water sizes.

// savedEvent is one pending event in a Checkpoint, pinned to its pool slot.
type savedEvent struct {
	slot  int32
	at    Time
	key   uint64
	seq   uint64
	fn    func()
	label string
}

// Checkpoint is a reusable snapshot of one Simulator's complete state.
// The zero value is ready to use. A Checkpoint is bound to the simulator
// that last saved into it.
type Checkpoint struct {
	sim       *Simulator
	now       Time
	seq       uint64
	processed uint64
	lastFired Time
	poolLen   int
	free      []int32
	gens      []uint32
	events    []savedEvent
}

// Save captures the simulator's current state into cp, reusing cp's
// buffers. It panics if called from within a running event.
func (s *Simulator) Save(cp *Checkpoint) {
	if s.running {
		panic("des: Save from within a running event")
	}
	cp.sim = s
	cp.now = s.now
	cp.seq = s.seq
	cp.processed = s.processed
	cp.lastFired = s.lastFired
	cp.poolLen = len(s.pool)
	cp.free = append(cp.free[:0], s.free...)
	cp.gens = cp.gens[:0]
	for i := range s.pool {
		cp.gens = append(cp.gens, s.pool[i].gen)
	}
	cp.events = cp.events[:0]
	for _, slot := range s.queue {
		ev := &s.pool[slot]
		cp.events = append(cp.events, savedEvent{
			slot: slot, at: ev.at, key: ev.key, seq: ev.seq,
			fn: ev.fn, label: ev.label,
		})
	}
}

// Pending returns the number of events the checkpoint holds.
func (cp *Checkpoint) Pending() int { return len(cp.events) }

// Now returns the clock value the checkpoint was taken at.
func (cp *Checkpoint) Now() Time { return cp.now }

// Rewind restores the simulator to the state captured by cp. Every event
// scheduled since the save is discarded, every event that fired since is
// re-queued at its original slot with its original generation, and the
// clock, sequence and processed counters return to their saved values.
// It panics if cp was saved from a different simulator or if called from
// within a running event.
func (s *Simulator) Rewind(cp *Checkpoint) {
	if cp.sim != s {
		panic("des: Rewind with a checkpoint from a different simulator")
	}
	if s.running {
		panic("des: Rewind from within a running event")
	}
	// Empty the queue wholesale: restored events are re-pushed below, and
	// everything else is dropped.
	s.queue = s.queue[:0]
	// Reset every slot: saved generations for slots that existed at the
	// save; callbacks dropped so rewound closures are not pinned.
	for i := range s.pool {
		ev := &s.pool[i]
		ev.index = -1
		ev.fn = nil
		ev.label = ""
		if i < cp.poolLen {
			ev.gen = cp.gens[i]
		}
	}
	// Free list: the saved list, plus every slot minted after the save
	// (handles to those live only in discarded state).
	s.free = append(s.free[:0], cp.free...)
	for i := cp.poolLen; i < len(s.pool); i++ {
		s.free = append(s.free, int32(i))
	}
	// Re-queue the saved pending events at their original slots. The
	// heap's shape may differ from the original run, but the fire order
	// is (at, key, seq), which is restored exactly.
	for i := range cp.events {
		se := &cp.events[i]
		ev := &s.pool[se.slot]
		ev.at = se.at
		ev.key = se.key
		ev.seq = se.seq
		ev.fn = se.fn
		ev.label = se.label
		s.push(se.slot)
	}
	s.now = cp.now
	s.seq = cp.seq
	s.processed = cp.processed
	s.lastFired = cp.lastFired
	s.stopped = false
}

// LastFired returns the timestamp of the most recently executed event, or
// -Inf if no event has fired. The partition coordinator compares it
// against the commit bound to decide whether a logical process ran past
// the bound and must roll back.
func (s *Simulator) LastFired() Time { return s.lastFired }

// SyncClock moves the clock to t without executing anything — in either
// direction, provided the move crosses no event: no event fired after t
// and no event is pending before t. The partition coordinator uses it at
// a barrier to park every logical process exactly at the commit bound
// (speculative clocks regress to it; lagging clocks advance to it), so
// arrivals exchanged at the barrier can never land in any simulator's
// past. It panics on a move that would cross an event.
func (s *Simulator) SyncClock(t Time) {
	if s.running {
		panic("des: SyncClock from within a running event")
	}
	if math.IsNaN(t) {
		panic("des: SyncClock with NaN time")
	}
	if t < s.lastFired {
		panic(fmt.Sprintf("des: SyncClock(%v) before last fired event at %v", t, s.lastFired))
	}
	if at := s.NextAt(); at < t {
		panic(fmt.Sprintf("des: SyncClock(%v) past pending event at %v", t, at))
	}
	s.now = t
}

// Package periodic implements the paper's Periodic Messages model (§3) and
// its simulation semantics (§4): N routers, each with a routing timer drawn
// from a jitter policy (U[Tp−Tr, Tp+Tr] in the paper), a per-message
// processing cost Tc, and the weak coupling that arises because a router
// resets its timer only after it has finished sending its own routing
// message and processing any incoming ones.
//
// The simulation follows the paper's simplifying assumptions: routing
// message transmission time is zero and every router learns of a timer
// expiration immediately, so when the earliest pending timer fires at time
// t, the set of routers whose timers fire inside the growing busy window
// [t, t+k·Tc) forms a cluster of size k; all members finish processing at
// t+k·Tc and reset their timers simultaneously. Those shared resets are
// the synchronization mechanism the paper studies.
package periodic

import (
	"fmt"
	"math"

	"routesync/internal/cluster"
	"routesync/internal/jitter"
	"routesync/internal/rng"
)

// TimerReset selects when a router's timer is re-armed.
type TimerReset int

const (
	// ResetAfterProcessing is the paper's model (§3 step 3): the timer is
	// set only after the router finishes its outgoing message and all
	// incoming ones, so processing delays shift the next expiration. This
	// is the coupling that lets clusters form and drift.
	ResetAfterProcessing TimerReset = iota
	// ResetOnExpiry is the alternative suggested in RFC 1058 and §6: the
	// next expiration is scheduled from the previous expiration,
	// unaffected by processing time. Routers are then uncoupled — they
	// neither synchronize nor, once synchronized, desynchronize.
	ResetOnExpiry
)

// String returns the reset mode name.
func (t TimerReset) String() string {
	switch t {
	case ResetAfterProcessing:
		return "reset-after-processing"
	case ResetOnExpiry:
		return "reset-on-expiry"
	default:
		return fmt.Sprintf("TimerReset(%d)", int(t))
	}
}

// StartState selects the initial phase of the routers.
type StartState int

const (
	// StartUnsynchronized draws each router's first expiration uniformly
	// from [0, Tp] (paper §4: "the transit time for the first routing
	// message is chosen from the uniform distribution on [0, Tp]").
	StartUnsynchronized StartState = iota
	// StartSynchronized fires every router's first timer at time 0 — the
	// state a wave of triggered updates or a simultaneous restart leaves
	// the network in (paper Figs 8, 11).
	StartSynchronized
)

// String returns the start-state name.
func (s StartState) String() string {
	switch s {
	case StartUnsynchronized:
		return "unsynchronized"
	case StartSynchronized:
		return "synchronized"
	default:
		return fmt.Sprintf("StartState(%d)", int(s))
	}
}

// Config parameterizes a System.
type Config struct {
	// N is the number of routers (paper default 20).
	N int
	// Tc is the seconds of computation needed to process one incoming or
	// outgoing routing message (paper default 0.11 s).
	Tc float64
	// Jitter yields successive timer intervals (paper default
	// U[Tp−Tr, Tp+Tr] with Tp = 121 s, Tr = 0.1 s).
	Jitter jitter.Policy
	// Reset selects the timer re-arm rule; the zero value is the paper's.
	Reset TimerReset
	// Start selects the initial phase; the zero value is unsynchronized.
	Start StartState
	// Seed drives all randomness. Two runs with equal Config replay
	// identically.
	Seed int64
	// Observer, when non-nil, is notified after every cluster firing.
	// Unlike OnEvent callbacks it receives only scalars, so counting
	// rounds costs no allocations. Nil (the default) costs one branch.
	Observer Observer
}

// Observer receives model lifecycle notifications. Methods are called
// synchronously from Step; implementations must not call back into the
// System. A nil observer is free apart from a single branch per event.
type Observer interface {
	// RoundCompleted fires after each cluster event: now is the busy-window
	// end the clock advanced to, size the number of routers in the cluster.
	RoundCompleted(now float64, size int)
}

// Paper returns the configuration used throughout the paper's §4
// simulations: N routers, Tp = 121 s, Tc = 0.11 s, and random component tr.
func Paper(n int, tr float64, seed int64) Config {
	return Config{
		N:      n,
		Tc:     0.11,
		Jitter: jitter.Uniform{Tp: 121, Tr: tr},
		Seed:   seed,
	}
}

// Event describes one cluster firing: the routers whose timers expired in
// one shared busy window.
//
// Members and Expiries are backed by scratch owned by the System and
// reused on the next Step — read or copy them before stepping again.
// Every run helper and observer in this repository consumes them
// immediately; the reuse is what keeps Step at zero steady-state
// allocations.
type Event struct {
	// Start is the first timer expiration (busy window opens).
	Start float64
	// End is Start + Size·Tc, when all members reset their timers.
	End float64
	// Members holds the router ids in expiry order; Members[0] is the
	// cluster head.
	Members []int
	// Expiries holds each member's timer-expiration time, parallel to
	// Members.
	Expiries []float64
	// Next is the earliest pending timer expiration after this event's
	// resets — what NextExpiry would return. Run loops use it to decide
	// whether to keep stepping without re-querying the system.
	Next float64
}

// Size returns the cluster size.
func (e Event) Size() int { return len(e.Members) }

// System is a running instance of the Periodic Messages model. It is not
// safe for concurrent use.
type System struct {
	cfg    Config
	r      *rng.Source
	expiry []float64 // next timer expiration per router
	now    float64
	steps  uint64
	// onEvent observers are invoked, in registration order, after every
	// cluster firing.
	onEvent []func(Event)
	// heap is a binary min-heap of router ids keyed by (expiry, id) — the
	// model's deterministic firing order. Step pops one cluster (k
	// members) and pushes the re-armed timers back, so each firing costs
	// O(k log N) instead of the O(N log N) full sort, and NextExpiry is an
	// O(1) peek.
	heap []int32
	// scratch buffers reused across steps
	members []cluster.Member
	// analysis is a second scratch for LargestPending/ClusterSizes, kept
	// separate from members so OnEvent observers may call them mid-Step.
	analysis []cluster.Member
	// evMembers/evExpiries back the Members/Expiries slices of returned
	// Events, reused every Step.
	evMembers  []int
	evExpiries []float64
	// useBucket routes Step through the structure-of-arrays bucket
	// engine (N >= bucketEngineMinN); bucket holds its state.
	useBucket bool
	bucket    bucketState
}

// New constructs a System from cfg. It panics on invalid configuration:
// N < 1, Tc < 0, nil Jitter, or a jitter policy whose mean period does not
// exceed N·Tc (the network would spend all its time processing updates).
func New(cfg Config) *System {
	return newSystem(cfg, cfg.N >= bucketEngineMinN)
}

// newSystem is New with the Step engine chosen by the caller: the bucket
// engine when useBucket is set, the heap engine otherwise. Tests use it to
// run either engine at any N.
func newSystem(cfg Config, useBucket bool) *System {
	if cfg.N < 1 {
		panic("periodic: need at least one router")
	}
	if cfg.Tc < 0 {
		panic("periodic: negative Tc")
	}
	if cfg.Jitter == nil {
		panic("periodic: nil jitter policy")
	}
	if cfg.Jitter.Mean() <= float64(cfg.N)*cfg.Tc {
		panic("periodic: mean period must exceed N*Tc (system otherwise saturates)")
	}
	s := &System{
		cfg:        cfg,
		r:          rng.New(cfg.Seed),
		expiry:     make([]float64, cfg.N),
		members:    make([]cluster.Member, cfg.N),
		analysis:   make([]cluster.Member, cfg.N),
		evMembers:  make([]int, cfg.N),
		evExpiries: make([]float64, cfg.N),
		useBucket:  useBucket,
	}
	if s.useBucket {
		s.bucketInit()
	} else {
		s.heap = make([]int32, cfg.N)
	}
	switch cfg.Start {
	case StartSynchronized:
		// all zero: one size-N cluster fires immediately
	default:
		tp := cfg.Jitter.Mean()
		for i := range s.expiry {
			s.expiry[i] = s.r.Uniform(0, tp)
		}
	}
	s.rebuild()
	return s
}

// rebuild refreshes the active engine's index of the expiry array.
func (s *System) rebuild() {
	if s.useBucket {
		s.bucketRebuild()
	} else {
		s.rebuildHeap()
	}
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Now returns the current simulation time (the End of the last event).
func (s *System) Now() float64 { return s.now }

// Steps returns the number of cluster events processed.
func (s *System) Steps() uint64 { return s.steps }

// NextExpiry returns the earliest pending timer expiration, an O(1) peek
// on either engine; callers inside run loops can avoid even that by
// reading Event.Next from the previous Step.
func (s *System) NextExpiry() float64 {
	if s.useBucket {
		return s.bucket.min
	}
	return s.expiry[s.heap[0]]
}

// Expiries returns a copy of every router's pending expiration time.
func (s *System) Expiries() []float64 {
	return append([]float64(nil), s.expiry...)
}

// SetExpiries overrides the pending expirations (len must equal N); used
// by tests and by experiment drivers that construct bespoke phases.
func (s *System) SetExpiries(e []float64) {
	if len(e) != s.cfg.N {
		panic("periodic: SetExpiries length mismatch")
	}
	copy(s.expiry, e)
	s.rebuild()
}

// OnEvent registers an observer invoked after every cluster firing.
func (s *System) OnEvent(fn func(Event)) { s.onEvent = append(s.onEvent, fn) }

// SetObserver installs obs (nil to remove), equivalent to having set
// Config.Observer before construction.
func (s *System) SetObserver(obs Observer) { s.cfg.Observer = obs }

// TriggerUpdate models a major network change (§3 step 4): every router
// sends a triggered update immediately, without waiting for its timer. All
// timers are therefore re-armed from one shared busy window — the system
// collapses into a single cluster of size N on the next Step.
func (s *System) TriggerUpdate() {
	for i := range s.expiry {
		s.expiry[i] = s.now
	}
	s.rebuild()
}

// Step processes the next cluster firing and returns it. The active
// engine pops the cluster — k routers starting at t, left in s.members in
// (expiry, id) order and removed from the engine's index, with frontier
// the earliest expiry still indexed. The rest is shared: Step closes the
// busy window, re-arms each member in that order (so the RNG draws are
// engine-independent), puts it back in the index, and notifies the
// Observer and the OnEvent callbacks.
func (s *System) Step() Event {
	var t, frontier float64
	var k int
	if s.useBucket {
		t, k, frontier = s.popBucket()
	} else {
		t, k, frontier = s.popHeap()
	}
	end := t + float64(k)*s.cfg.Tc
	s.now = end
	ev := Event{
		Start:    t,
		End:      end,
		Members:  s.evMembers[:k],
		Expiries: s.evExpiries[:k],
		Next:     frontier,
	}
	for i := 0; i < k; i++ {
		m := s.members[i]
		ev.Members[i] = m.ID
		ev.Expiries[i] = m.Expiry
		delay := s.cfg.Jitter.Delay(s.r, m.ID)
		var next float64
		switch s.cfg.Reset {
		case ResetOnExpiry:
			next = m.Expiry + delay
			if next < end {
				// The timer would have fired during the busy window;
				// the message goes out as soon as processing finishes.
				next = end
			}
		default: // ResetAfterProcessing, the paper's rule
			next = end + delay
		}
		s.expiry[m.ID] = next
		if s.useBucket {
			s.bucketLink(int32(m.ID))
		} else {
			s.heapPush(int32(m.ID))
		}
		if next < ev.Next {
			ev.Next = next
		}
	}
	if s.useBucket {
		s.bucket.min = ev.Next
		s.bucket.cur = s.bucket.bvbFor(ev.Next)
	}
	s.steps++
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, k)
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}

// RunUntil processes cluster firings while the earliest pending expiry is
// <= horizon. It returns the number of events processed.
func (s *System) RunUntil(horizon float64) uint64 {
	var n uint64
	next := s.NextExpiry()
	for next <= horizon {
		next = s.Step().Next
		n++
	}
	return n
}

// RoundWindow returns the nominal round length Tp + Tc used for
// time-offset plots and per-round largest-cluster tracking (paper Fig 4:
// "the time mod T, for T = Tp + Tc").
func (s *System) RoundWindow() float64 {
	return s.cfg.Jitter.Mean() + s.cfg.Tc
}

// popHeap is the heap engine's half of Step: it pops the next cluster into
// s.members and returns its start time, its size and the earliest expiry
// left pending (+Inf when every router fired). The heap yields routers
// in (expiry, id) order, so the admission loop sees exactly the sorted
// prefix cluster.Grow would, and the window test is the same
// floating-point expression.
func (s *System) popHeap() (t float64, k int, frontier float64) {
	head := s.heapPop()
	t = s.expiry[head]
	s.members[0] = cluster.Member{ID: int(head), Expiry: t}
	k = 1
	for len(s.heap) > 0 {
		e := s.expiry[s.heap[0]]
		if e < t+float64(k)*s.cfg.Tc || e == t {
			s.members[k] = cluster.Member{ID: int(s.heapPop()), Expiry: e}
			k++
			continue
		}
		return t, k, e
	}
	return t, k, math.Inf(1)
}

// heapLess reports whether router a's timer fires before router b's:
// earlier expiry, lower id on ties — the same order cluster.Grow sorts by.
func (s *System) heapLess(a, b int32) bool {
	ea, eb := s.expiry[a], s.expiry[b]
	if ea != eb {
		return ea < eb
	}
	return a < b
}

// rebuildHeap re-heapifies all N routers in O(N); called whenever the
// expiry set changes wholesale (construction, SetExpiries, TriggerUpdate).
func (s *System) rebuildHeap() {
	s.heap = s.heap[:0]
	for i := 0; i < s.cfg.N; i++ {
		s.heap = append(s.heap, int32(i))
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

func (s *System) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[p]) {
			return
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *System) siftDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && s.heapLess(s.heap[r], s.heap[l]) {
			small = r
		}
		if !s.heapLess(s.heap[small], s.heap[i]) {
			return
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
}

func (s *System) heapPop() int32 {
	id := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return id
}

func (s *System) heapPush(id int32) {
	s.heap = append(s.heap, id)
	s.siftUp(len(s.heap) - 1)
}

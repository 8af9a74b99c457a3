package des

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"routesync/internal/rng"
)

// This file differential-tests the heap against refQueue, a sorted-slice
// queue small enough to check by reading: any schedule/cancel/reschedule
// program must produce bit-identical firing order, observer callback
// streams (with queue depths) and stale-handle Cancel/Scheduled answers
// on both. The programs lean on the adversarial cases — heavy
// same-instant ties, stale-handle Cancels, re-entrant scheduling from
// callbacks, far-future outliers and deep queues.

// handle is the part of an event handle the programs use.
type handle interface {
	At() Time
	Scheduled() bool
}

// queue is the event-queue contract the programs drive.
type queue interface {
	Now() Time
	Pending() int
	SetObserver(Observer)
	schedule(at Time, fn func()) handle
	cancel(h handle) bool
	Step() bool
	RunCount(n uint64) uint64
	RunUntil(horizon Time) uint64
	Run() uint64
}

// heapQueue adapts a Simulator to queue.
type heapQueue struct{ *Simulator }

func (q heapQueue) schedule(at Time, fn func()) handle { return q.Schedule(at, "prog", fn) }
func (q heapQueue) cancel(h handle) bool               { return q.Cancel(h.(Event)) }

// refQueue is the executable specification of the queue contract: events
// fire in (time, insertion order), a fired or cancelled event's handle is
// stale forever, and observers see the depth after each operation. It
// keeps events sorted by descending (at, seq), so the next to fire is the
// last element and same-instant re-scheduling appends cheaply.
type refQueue struct {
	now    Time
	seq    uint64
	events []refEvent
	obs    Observer
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// refHandle names a refQueue event by its insertion sequence number,
// which is never reused.
type refHandle struct {
	q   *refQueue
	seq uint64
}

func (h refHandle) find() int {
	for i := range h.q.events {
		if h.q.events[i].seq == h.seq {
			return i
		}
	}
	return -1
}

func (h refHandle) At() Time {
	if i := h.find(); i >= 0 {
		return h.q.events[i].at
	}
	return math.Inf(1)
}

func (h refHandle) Scheduled() bool { return h.find() >= 0 }

func (q *refQueue) Now() Time              { return q.now }
func (q *refQueue) Pending() int           { return len(q.events) }
func (q *refQueue) SetObserver(o Observer) { q.obs = o }

func (q *refQueue) schedule(at Time, fn func()) handle {
	e := refEvent{at: at, seq: q.seq, fn: fn}
	q.seq++
	// The new event fires after every event at or before its time, so it
	// goes in front of them.
	i := sort.Search(len(q.events), func(i int) bool { return q.events[i].at <= at })
	q.events = append(q.events, refEvent{})
	copy(q.events[i+1:], q.events[i:])
	q.events[i] = e
	if q.obs != nil {
		q.obs.EventScheduled(at, len(q.events))
	}
	return refHandle{q, e.seq}
}

func (q *refQueue) cancel(h handle) bool {
	i := h.(refHandle).find()
	if i < 0 {
		return false
	}
	at := q.events[i].at
	q.events = append(q.events[:i], q.events[i+1:]...)
	if q.obs != nil {
		q.obs.EventCancelled(at, len(q.events))
	}
	return true
}

func (q *refQueue) Step() bool {
	n := len(q.events)
	if n == 0 {
		return false
	}
	e := q.events[n-1]
	q.events = q.events[:n-1]
	q.now = e.at
	if q.obs != nil {
		q.obs.EventFired(q.now, len(q.events))
	}
	e.fn()
	return true
}

func (q *refQueue) RunCount(n uint64) uint64 {
	var done uint64
	for done < n && q.Step() {
		done++
	}
	return done
}

func (q *refQueue) RunUntil(horizon Time) uint64 {
	var done uint64
	for len(q.events) > 0 && q.events[len(q.events)-1].at <= horizon {
		q.Step()
		done++
	}
	if !math.IsInf(horizon, 1) && q.now < horizon {
		q.now = horizon
	}
	return done
}

func (q *refQueue) Run() uint64 { return q.RunUntil(math.Inf(1)) }

// obsRecord is one observer callback, recorded for comparison.
type obsRecord struct {
	kind  byte // 's'cheduled, 'f'ired, 'c'ancelled
	at    Time
	depth int
}

// recordingObserver appends every callback to a shared log.
type recordingObserver struct {
	log []obsRecord
}

func (o *recordingObserver) EventScheduled(at Time, depth int) {
	o.log = append(o.log, obsRecord{'s', at, depth})
}
func (o *recordingObserver) EventFired(at Time, depth int) {
	o.log = append(o.log, obsRecord{'f', at, depth})
}
func (o *recordingObserver) EventCancelled(at Time, depth int) {
	o.log = append(o.log, obsRecord{'c', at, depth})
}

// firing is one delivered event, as seen by its callback.
type firing struct {
	label   string
	at      Time
	pending int
}

// trace is everything a program observes of a queue: the delivery order,
// the observer log, and the answers to Scheduled/Cancel on handles that
// are often stale.
type trace struct {
	fired   []firing
	obs     []obsRecord
	answers []bool
}

// program is a deterministic schedule/cancel/reschedule script driven by
// its own RNG stream; replay runs it on a queue and returns its trace.
type program struct {
	seed int64
	ops  int
}

func (p program) replay(s queue) trace {
	r := rng.New(p.seed)
	obs := &recordingObserver{}
	s.SetObserver(obs)
	var tr trace
	var handles []handle

	// randomAt biases toward ties: a third of schedules land exactly on
	// an already-used timestamp (often "now"), the rest spread over a few
	// decades of simulated time with an occasional far outlier.
	randomAt := func() Time {
		switch r.Intn(6) {
		case 0:
			return s.Now() // immediate tie with the clock
		case 1:
			if len(handles) > 0 {
				if at := handles[r.Intn(len(handles))].At(); !math.IsInf(at, 1) {
					return at // exact tie with a pending event
				}
			}
			return s.Now() + Time(r.Intn(10))
		case 2:
			return s.Now() + 1e9*r.Float64() // far-future outlier
		default:
			return s.Now() + 100*r.Float64()
		}
	}

	schedule := func(i int) {
		label := fmt.Sprintf("ev%d", i)
		at := randomAt()
		handles = append(handles, s.schedule(at, func() {
			tr.fired = append(tr.fired, firing{label, s.Now(), s.Pending()})
			// Re-entrant scheduling from a callback, sometimes at the
			// exact current instant (a same-step tie).
			if r.Intn(3) == 0 {
				nested := fmt.Sprintf("%s.n", label)
				s.schedule(randomAt(), func() {
					tr.fired = append(tr.fired, firing{nested, s.Now(), s.Pending()})
				})
			}
		}))
	}

	for i := 0; i < p.ops; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			schedule(i)
		case 4:
			// Cancel a random handle — often stale by now.
			if len(handles) > 0 {
				h := handles[r.Intn(len(handles))]
				tr.answers = append(tr.answers, h.Scheduled(), s.cancel(h), h.Scheduled())
			}
		case 5:
			// Reschedule: cancel a live handle and re-insert at a new time.
			if len(handles) > 0 {
				h := handles[r.Intn(len(handles))]
				ok := s.cancel(h)
				tr.answers = append(tr.answers, ok)
				if ok {
					schedule(i)
				}
			}
		case 6:
			s.RunCount(uint64(r.Intn(8)))
		case 7:
			s.RunUntil(s.Now() + 50*r.Float64())
		default:
			s.Step()
		}
	}
	s.Run()
	tr.obs = obs.log
	return tr
}

// diffQueues reports the first divergence between two traces, if any.
func diffQueues(t *testing.T, heap, ref trace) {
	t.Helper()
	if len(heap.fired) != len(ref.fired) {
		t.Fatalf("heap fired %d events, reference %d", len(heap.fired), len(ref.fired))
	}
	for i := range heap.fired {
		if heap.fired[i] != ref.fired[i] {
			t.Fatalf("firing %d diverged:\n  heap:      %+v\n  reference: %+v", i, heap.fired[i], ref.fired[i])
		}
	}
	if len(heap.obs) != len(ref.obs) {
		t.Fatalf("heap observed %d callbacks, reference %d", len(heap.obs), len(ref.obs))
	}
	for i := range heap.obs {
		if heap.obs[i] != ref.obs[i] {
			t.Fatalf("observer callback %d diverged:\n  heap:      %+v\n  reference: %+v", i, heap.obs[i], ref.obs[i])
		}
	}
	if len(heap.answers) != len(ref.answers) {
		t.Fatalf("heap gave %d Scheduled/Cancel answers, reference %d", len(heap.answers), len(ref.answers))
	}
	for i := range heap.answers {
		if heap.answers[i] != ref.answers[i] {
			t.Fatalf("Scheduled/Cancel answer %d diverged: heap %v, reference %v", i, heap.answers[i], ref.answers[i])
		}
	}
}

// TestBackendEquivalence replays random programs on the heap and on the
// reference queue and requires identical traces.
func TestBackendEquivalence(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 120
	}
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := program{seed: seed, ops: ops}
			heap := p.replay(heapQueue{New()})
			if len(heap.fired) == 0 || len(heap.answers) == 0 {
				t.Fatalf("degenerate program: %d firings, %d answers", len(heap.fired), len(heap.answers))
			}
			diffQueues(t, heap, p.replay(&refQueue{}))
		})
	}
}

// TestBackendEquivalenceTieStorm schedules many events at few distinct
// timestamps so nearly every comparison is decided by the FIFO sequence
// number, then drains and compares.
func TestBackendEquivalenceTieStorm(t *testing.T) {
	run := func(s queue) trace {
		var tr trace
		obs := &recordingObserver{}
		s.SetObserver(obs)
		r := rng.New(7)
		for i := 0; i < 500; i++ {
			at := Time(r.Intn(4)) // only 4 distinct instants
			label := fmt.Sprintf("t%d", i)
			s.schedule(at, func() {
				tr.fired = append(tr.fired, firing{label, s.Now(), s.Pending()})
			})
		}
		s.Run()
		tr.obs = obs.log
		return tr
	}
	diffQueues(t, run(heapQueue{New()}), run(&refQueue{}))
}

// TestBackendEquivalenceDeep drives a deep queue — 20k initial events
// plus chained re-scheduling at sub-millisecond offsets from callbacks —
// so the heap works at its full depth with a steady stream of inserts
// that land near the root.
func TestBackendEquivalenceDeep(t *testing.T) {
	count := 20000
	if testing.Short() {
		count = 4000
	}
	run := func(s queue) trace {
		var tr trace
		obs := &recordingObserver{}
		s.SetObserver(obs)
		r := rng.New(99)
		var chain func(label string) func()
		chain = func(label string) func() {
			return func() {
				tr.fired = append(tr.fired, firing{label, s.Now(), s.Pending()})
				if r.Intn(2) == 0 {
					nl := label + "."
					s.schedule(s.Now()+0.0005*r.Float64(), chain(nl))
				}
			}
		}
		for i := 0; i < count; i++ {
			s.schedule(float64(i)*0.001, chain(fmt.Sprintf("e%d", i)))
		}
		s.Run()
		tr.obs = obs.log
		return tr
	}
	diffQueues(t, run(heapQueue{New()}), run(&refQueue{}))
}

// TestDefaultBackendEnv checks the environment knob: unset or "heap"
// selects the heap, and any other value — the retired "calendar"
// included — makes DefaultBackend and New panic naming the accepted
// value.
func TestDefaultBackendEnv(t *testing.T) {
	for _, env := range []string{"", "heap"} {
		t.Setenv(BackendEnv, env)
		if got := DefaultBackend(); got != BackendHeap {
			t.Errorf("DefaultBackend with %s=%q = %v, want heap", BackendEnv, env, got)
		}
		if New() == nil {
			t.Errorf("New with %s=%q returned nil", BackendEnv, env)
		}
	}
	if got := BackendHeap.String(); got != "heap" {
		t.Errorf("BackendHeap.String() = %q, want heap", got)
	}
	for _, env := range []string{"calendar", "bogus"} {
		t.Setenv(BackendEnv, env)
		for name, f := range map[string]func(){
			"DefaultBackend": func() { DefaultBackend() },
			"New":            func() { New() },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, `"heap"`) || !strings.Contains(msg, env) {
						t.Errorf("%s with %s=%q panicked with %q, want a message naming %q and heap", name, BackendEnv, env, msg, env)
					}
				}()
				f()
			}()
		}
	}
}

package des

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"routesync/internal/rng"
)

// This file differential-tests the two event-queue backends: any
// schedule/cancel/reschedule program must produce bit-identical firing
// order and bit-identical observer callback streams on the heap and the
// calendar queue. The programs lean on the adversarial cases — heavy
// same-instant ties, stale-handle Cancels, re-entrant scheduling from
// callbacks, far-future outliers that force the calendar's fallback scan,
// and enough churn to trigger calendar resizes in both directions.

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

// program is a deterministic schedule/cancel/reschedule script driven by
// its own RNG stream; replay runs it on a simulator and returns the
// delivery order plus the observer log.
type program struct {
	seed int64
	ops  int
}

func (p program) replay(s *Simulator) ([]firing, []obsRecord) {
	r := rng.New(p.seed)
	obs := &recordingObserver{}
	s.SetObserver(obs)
	var fired []firing
	var handles []Event

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
		var ev Event
		ev = s.Schedule(at, label, func() {
			fired = append(fired, firing{label, s.Now(), s.Pending()})
			// Re-entrant scheduling from a callback, sometimes at the
			// exact current instant (a same-step tie).
			if r.Intn(3) == 0 {
				nested := fmt.Sprintf("%s.n", label)
				s.Schedule(randomAt(), nested, func() {
					fired = append(fired, firing{nested, s.Now(), s.Pending()})
				})
			}
			_ = ev
		})
		handles = append(handles, ev)
	}

	for i := 0; i < p.ops; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			schedule(i)
		case 4:
			// Cancel a random handle — often stale by now.
			if len(handles) > 0 {
				s.Cancel(handles[r.Intn(len(handles))])
			}
		case 5:
			// Reschedule: cancel a live handle and re-insert at a new time.
			if len(handles) > 0 {
				h := handles[r.Intn(len(handles))]
				if s.Cancel(h) {
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
	return fired, obs.log
}

// diffBackends replays one program on both backends and reports the first
// divergence, if any.
func diffBackends(t *testing.T, p program) {
	t.Helper()
	hFired, hLog := p.replay(NewBackend(BackendHeap))
	cFired, cLog := p.replay(NewBackend(BackendCalendar))

	if len(hFired) != len(cFired) {
		t.Fatalf("seed %d: heap fired %d events, calendar %d", p.seed, len(hFired), len(cFired))
	}
	for i := range hFired {
		if hFired[i] != cFired[i] {
			t.Fatalf("seed %d: firing %d diverged:\n  heap:     %+v\n  calendar: %+v",
				p.seed, i, hFired[i], cFired[i])
		}
	}
	if len(hLog) != len(cLog) {
		t.Fatalf("seed %d: heap observed %d callbacks, calendar %d", p.seed, len(hLog), len(cLog))
	}
	for i := range hLog {
		if hLog[i] != cLog[i] {
			t.Fatalf("seed %d: observer callback %d diverged:\n  heap:     %+v\n  calendar: %+v",
				p.seed, i, hLog[i], cLog[i])
		}
	}
}

// TestBackendEquivalence replays random programs on both backends and
// requires bit-identical firing order and observer streams. CI runs this
// under -race as the designated backend-equivalence gate.
func TestBackendEquivalence(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 120
	}
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			diffBackends(t, program{seed: seed, ops: ops})
		})
	}
}

// TestBackendEquivalenceTieStorm schedules many events at few distinct
// timestamps so nearly every comparison is decided by the FIFO sequence
// number, then drains and compares.
func TestBackendEquivalenceTieStorm(t *testing.T) {
	run := func(s *Simulator) []firing {
		var fired []firing
		r := rng.New(7)
		for i := 0; i < 500; i++ {
			at := Time(r.Intn(4)) // only 4 distinct instants
			label := fmt.Sprintf("t%d", i)
			s.Schedule(at, label, func() {
				fired = append(fired, firing{label, s.Now(), s.Pending()})
			})
		}
		s.Run()
		return fired
	}
	h := run(NewBackend(BackendHeap))
	c := run(NewBackend(BackendCalendar))
	if len(h) != len(c) {
		t.Fatalf("heap fired %d, calendar %d", len(h), len(c))
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("firing %d diverged: heap %+v calendar %+v", i, h[i], c[i])
		}
	}
}

// checkCalendarInvariants walks the calendar structure and reports the
// first violated invariant: location fields match actual position,
// buckets are sorted and consistent with vbFor under the current width,
// no pending day precedes the scan cursor, and the size counter matches.
func checkCalendarInvariants(s *Simulator) string {
	c := &s.cal
	if c.buckets == nil {
		return ""
	}
	total := 0
	for b, list := range c.buckets {
		for idx, slot := range list {
			ev := &s.pool[slot]
			if int(ev.bucket) != b || int(ev.index) != idx {
				return fmt.Sprintf("slot %d (%s at %v): location (%d,%d) but stored at (%d,%d)",
					slot, ev.label, ev.at, ev.bucket, ev.index, b, idx)
			}
			vb := c.vbFor(ev.at)
			if int(vb)&c.mask != b {
				return fmt.Sprintf("slot %d (%s at %v): vb %d maps to bucket %d, stored in %d (width %v)",
					slot, ev.label, ev.at, vb, int(vb)&c.mask, b, c.width)
			}
			if vb < c.curVB {
				return fmt.Sprintf("slot %d (%s at %v): day %d precedes cursor %d (width %v)",
					slot, ev.label, ev.at, vb, c.curVB, c.width)
			}
			if idx > 0 && !s.less(list[idx-1], slot) {
				return fmt.Sprintf("bucket %d out of order at index %d", b, idx)
			}
			total++
		}
	}
	if total != c.size {
		return fmt.Sprintf("size %d but %d events in buckets", c.size, total)
	}
	return ""
}

// TestBackendEquivalenceDeep drives a deep queue (20k initial events with
// sub-bucket spacing plus chained re-scheduling from callbacks) through
// several calendar resizes, validating structural invariants after every
// firing. This workload caught a real bug during development: deciding
// day membership with a reconstructed boundary (at < (day+1)*width)
// instead of vbFor lets floating-point rounding hide an event for a full
// calendar cycle.
func TestBackendEquivalenceDeep(t *testing.T) {
	count := 20000
	if testing.Short() {
		count = 4000
	}
	run := func(s *Simulator, check bool) []firing {
		var fired []firing
		r := rng.New(99)
		var chain func(label string) func()
		chain = func(label string) func() {
			return func() {
				fired = append(fired, firing{label, s.Now(), s.Pending()})
				if r.Intn(2) == 0 {
					nl := label + "."
					s.Schedule(s.Now()+0.0005*r.Float64(), nl, chain(nl))
				}
				if check {
					if msg := checkCalendarInvariants(s); msg != "" {
						t.Fatalf("after firing %d (%s): %s", len(fired)-1, label, msg)
					}
				}
			}
		}
		for i := 0; i < count; i++ {
			s.Schedule(float64(i)*0.001, fmt.Sprintf("e%d", i), chain(fmt.Sprintf("e%d", i)))
		}
		s.Run()
		return fired
	}
	h := run(NewBackend(BackendHeap), false)
	c := run(NewBackend(BackendCalendar), true)
	if len(h) != len(c) {
		t.Fatalf("heap fired %d, calendar %d", len(h), len(c))
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("firing %d diverged: heap %+v calendar %+v", i, h[i], c[i])
		}
	}
}

// TestParseBackend covers the name round-trip and the error case.
func TestParseBackend(t *testing.T) {
	for _, b := range []Backend{BackendHeap, BackendCalendar} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseBackend("splay"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend name")
	}
}

// TestDefaultBackendEnv checks the environment override, and that an
// unrecognized value panics naming the accepted ones.
func TestDefaultBackendEnv(t *testing.T) {
	cases := []struct {
		env  string
		want Backend
	}{
		{"", BackendHeap},
		{"heap", BackendHeap},
		{"calendar", BackendCalendar},
	}
	for _, c := range cases {
		t.Setenv(BackendEnv, c.env)
		if got := DefaultBackend(); got != c.want {
			t.Errorf("DefaultBackend with %s=%q = %v, want %v", BackendEnv, c.env, got, c.want)
		}
		if got := New().Backend(); got != c.want {
			t.Errorf("New().Backend() with %s=%q = %v, want %v", BackendEnv, c.env, got, c.want)
		}
	}
	t.Setenv(BackendEnv, "bogus")
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"heap"`) || !strings.Contains(msg, `"calendar"`) {
				t.Errorf("DefaultBackend with %s=bogus panicked with %q, want a message naming heap and calendar", BackendEnv, msg)
			}
		}()
		DefaultBackend()
	}()
}

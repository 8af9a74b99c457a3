package periodic

import (
	"fmt"
	"math"
	"testing"

	"routesync/internal/cluster"
	"routesync/internal/jitter"
)

// reference is the original sort-based Step, kept as the executable
// specification both production engines are differential-tested
// against: rebuild the full member set, apply cluster.Grow, re-arm every
// member. It shares the System's state (expiries, RNG, scratch) and its
// wholesale setters, but none of the heap or bucket engine code.
type reference struct{ *System }

func newReference(cfg Config) reference { return reference{newSystem(cfg, false)} }

func (r reference) Step() Event {
	s := r.System
	for i := range s.members {
		s.members[i] = cluster.Member{ID: i, Expiry: s.expiry[i]}
	}
	c := cluster.Grow(s.members, s.cfg.Tc)
	s.now = c.End
	ev := Event{
		Start:    c.Start,
		End:      c.End,
		Members:  s.evMembers[:c.Size()],
		Expiries: s.evExpiries[:c.Size()],
	}
	for i, m := range c.Members {
		ev.Members[i] = m.ID
		ev.Expiries[i] = m.Expiry
		delay := s.cfg.Jitter.Delay(s.r, m.ID)
		var next float64
		switch s.cfg.Reset {
		case ResetOnExpiry:
			next = m.Expiry + delay
			if next < c.End {
				next = c.End
			}
		default: // ResetAfterProcessing, the paper's rule
			next = c.End + delay
		}
		s.expiry[m.ID] = next
	}
	ev.Next = r.NextExpiry()
	s.steps++
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, c.Size())
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}

func (r reference) NextExpiry() float64 {
	min := math.Inf(1)
	for _, e := range r.expiry {
		if e < min {
			min = e
		}
	}
	return min
}

// engine is what the differential tests drive: *System (either engine)
// or the reference.
type engine interface {
	Step() Event
	NextExpiry() float64
	TriggerUpdate()
	SetExpiries([]float64)
	Now() float64
	Expiries() []float64
	LargestPending() int
}

// named labels an engine in failure messages.
type named struct {
	name string
	e    engine
}

func heapEngine(cfg Config) named   { return named{"heap", newSystem(cfg, false)} }
func bucketEngine(cfg Config) named { return named{"bucket", newSystem(cfg, true)} }
func refEngine(cfg Config) named    { return named{"reference", newReference(cfg)} }

// lockstep steps every engine steps times — injecting TriggerUpdate into
// all of them before step trigAt, when trigAt >= 0 — and fails at the
// first Event or NextExpiry that differs from the first engine's, bit for
// bit. It then compares the final clock, expiries and largest pending
// cluster.
func lockstep(t *testing.T, steps, trigAt int, engines ...named) {
	t.Helper()
	want := engines[0]
	for i := 0; i < steps; i++ {
		if i == trigAt {
			for _, g := range engines {
				g.e.TriggerUpdate()
			}
		}
		we := want.e.Step()
		for _, g := range engines[1:] {
			if ge := g.e.Step(); !eventsEqual(ge, we) {
				t.Fatalf("step %d diverged:\n%-9s %+v\n%-9s %+v", i, g.name+":", ge, want.name+":", we)
			}
			if gn, wn := g.e.NextExpiry(), want.e.NextExpiry(); gn != wn {
				t.Fatalf("step %d NextExpiry diverged: %s %v, %s %v", i, g.name, gn, want.name, wn)
			}
		}
	}
	for _, g := range engines[1:] {
		if g.e.Now() != want.e.Now() {
			t.Fatalf("Now diverged: %s %v, %s %v", g.name, g.e.Now(), want.name, want.e.Now())
		}
		gex, wex := g.e.Expiries(), want.e.Expiries()
		for id := range wex {
			if gex[id] != wex[id] {
				t.Fatalf("router %d final expiry diverged: %s %v, %s %v", id, g.name, gex[id], want.name, wex[id])
			}
		}
		if gl, wl := g.e.LargestPending(), want.e.LargestPending(); gl != wl {
			t.Fatalf("LargestPending diverged: %s %d, %s %d", g.name, gl, want.name, wl)
		}
	}
}

// differentialGrid runs fn over the seed × reset rule × start state grid
// the engine differential tests share, at N = 25 with a jitter wide
// enough to keep clusters small but non-trivial.
func differentialGrid(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, reset := range []TimerReset{ResetAfterProcessing, ResetOnExpiry} {
			for _, start := range []StartState{StartUnsynchronized, StartSynchronized} {
				cfg := Config{
					N:      25,
					Tc:     0.11,
					Jitter: jitter.Uniform{Tp: 121, Tr: 0.5},
					Reset:  reset,
					Start:  start,
					Seed:   seed,
				}
				t.Run(fmt.Sprintf("seed=%d/%v/%v", seed, reset, start), func(t *testing.T) { fn(t, cfg) })
			}
		}
	}
}

// Grid run length and the step index at which every engine is hit with a
// TriggerUpdate.
const (
	gridSteps  = 400
	gridTrigAt = 137
)

// TestHeapMatchesReference differential-tests the heap engine against the
// sort-based reference: for a grid of seeds, reset rules and start
// states — with a TriggerUpdate injected mid-run — the two must produce
// identical Event sequences, bit for bit.
func TestHeapMatchesReference(t *testing.T) {
	differentialGrid(t, func(t *testing.T, cfg Config) {
		lockstep(t, gridSteps, gridTrigAt, refEngine(cfg), heapEngine(cfg))
	})
}

// setExpiriesPhases are bespoke phases with duplicates, exercising the
// (expiry, id) tie-break after a wholesale rebuild.
var setExpiriesPhases = []float64{5, 1, 5, 3, 1, 8, 1, 3, 5, 2}

// TestHeapMatchesReferenceSetExpiries checks the heap is rebuilt correctly
// when the expiry set is overridden wholesale, including exact ties.
func TestHeapMatchesReferenceSetExpiries(t *testing.T) {
	cfg := Paper(10, 0.5, 42)
	ref, heap := refEngine(cfg), heapEngine(cfg)
	ref.e.SetExpiries(setExpiriesPhases)
	heap.e.SetExpiries(setExpiriesPhases)
	lockstep(t, 50, -1, ref, heap)
}

// TestBucketMatchesHeap differential-tests the structure-of-arrays bucket
// engine on the same grid: the bucket engine and the heap engine must
// each replay the sort-based reference bit for bit, and so each other.
// N is far below bucketEngineMinN, so this runs the bucket engine through
// the test-only constructor; ties are exercised by the synchronized start
// (every expiry equal) and the trigger (every expiry collapsed to now).
func TestBucketMatchesHeap(t *testing.T) {
	differentialGrid(t, func(t *testing.T, cfg Config) {
		lockstep(t, gridSteps, gridTrigAt, refEngine(cfg), heapEngine(cfg), bucketEngine(cfg))
	})
}

// TestBucketMatchesHeapLargeN replays the engines at a population above
// bucketEngineMinN — the scale the bucket engine exists for, built
// through New so the threshold itself is checked — including the
// saturated synchronized start where a single cluster holds every router
// and the candidate sort sees N-way ties. The reference re-sorts all N
// expiries per step, so it rides along for the first refSteps steps;
// the heap and bucket engines continue in lockstep for a few full rounds.
func TestBucketMatchesHeapLargeN(t *testing.T) {
	n := 6000
	steps := 3 * n
	if testing.Short() {
		n, steps = 4500, 4500
	}
	const refSteps = 600
	for _, start := range []StartState{StartUnsynchronized, StartSynchronized} {
		t.Run(start.String(), func(t *testing.T) {
			tp := 6.05 * float64(n)
			cfg := Config{
				N:      n,
				Tc:     0.11,
				Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20},
				Start:  start,
				Seed:   7,
			}
			bucket := New(cfg)
			if !bucket.useBucket {
				t.Fatalf("New did not pick the bucket engine at N=%d", n)
			}
			heap := heapEngine(cfg)
			lockstep(t, refSteps, -1, refEngine(cfg), heap, named{"bucket", bucket})
			lockstep(t, steps-refSteps, -1, heap, named{"bucket", bucket})
		})
	}
}

// TestBucketSetExpiries checks the bucket index is rebuilt correctly when
// the expiry set is overridden wholesale, including exact ties.
func TestBucketSetExpiries(t *testing.T) {
	cfg := Paper(10, 0.5, 42)
	ref, heap, bucket := refEngine(cfg), heapEngine(cfg), bucketEngine(cfg)
	for _, g := range []named{ref, heap, bucket} {
		g.e.SetExpiries(setExpiriesPhases)
	}
	lockstep(t, 50, -1, ref, heap, bucket)
}

// TestNewPicksEngineByN pins the engine choice at the threshold.
func TestNewPicksEngineByN(t *testing.T) {
	for _, n := range []int{1, bucketEngineMinN - 1, bucketEngineMinN} {
		cfg := Paper(n, 0.5, 1)
		cfg.Jitter = jitter.Uniform{Tp: float64(n), Tr: 0.5}
		if got, want := New(cfg).useBucket, n >= bucketEngineMinN; got != want {
			t.Errorf("N=%d: useBucket = %v, want %v", n, got, want)
		}
	}
}

func eventsEqual(a, b Event) bool {
	if a.Start != b.Start || a.End != b.End || a.Next != b.Next || len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] || a.Expiries[i] != b.Expiries[i] {
			return false
		}
	}
	return true
}

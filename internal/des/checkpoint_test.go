package des

import (
	"fmt"
	"math"
	"testing"

	"routesync/internal/rng"
)

// ckpFiring is one observed event execution, the unit the differential tests
// compare: if two runs fire the same (time, key, label) sequence and end
// with the same clock/seq/processed state, they are behaviorally
// bit-identical.
type ckpFiring struct {
	at    Time
	key   uint64
	label string
}

// ckpProgram is a deterministic random schedule/cancel/run program. Both
// the reference and the speculating simulator execute the identical
// committed op stream; the speculating one additionally checkpoints,
// runs speculative garbage, and rewinds at random points.
type ckpProgram struct {
	sim   *Simulator
	log   *[]ckpFiring
	held  []Event // handles for random cancels
	labNo int
}

// op applies one random committed operation. The random draws are passed
// in pre-drawn so the op stream is identical across simulators sharing a
// seed regardless of what each simulator does with them.
func (p *ckpProgram) op(kind, a, b int64) {
	switch kind % 4 {
	case 0, 1: // schedule (weighted: keeps the queue populated)
		at := p.sim.Now() + float64(a%50)/10
		key := uint64(b % 7) // deliberate key collisions to exercise seq ties
		p.labNo++
		label := fmt.Sprintf("ev%d", p.labNo)
		log := p.log
		e := p.sim.ScheduleKeyed(at, key, label, func() {
			*log = append(*log, ckpFiring{at: at, key: key, label: label})
		})
		p.held = append(p.held, e)
	case 2: // cancel a random held handle (often already stale)
		if len(p.held) > 0 {
			p.sim.Cancel(p.held[a%int64(len(p.held))])
		}
	case 3: // run a short window
		p.sim.RunUntil(p.sim.Now() + float64(a%30)/10)
	}
}

// TestCheckpointRewindDifferential fuzzes checkpoint/rewind: a reference simulator executes a random committed program
// straight through; a speculating simulator executes the same program but
// randomly checkpoints, runs a burst of speculative operations (extra
// schedules, cancels, run windows), then rewinds and continues the
// committed stream. The fired-event logs and final (now, seq, processed)
// state must match exactly — rewinding plus resuming is bit-identical to
// never having speculated.
func TestCheckpointRewindDifferential(t *testing.T) {
	t.Run(BackendHeap.String(), func(t *testing.T) {
		for trial := 0; trial < 60; trial++ {
			seed := int64(trial + 1)
			refLog := runCkpTrial(t, seed, false)
			specLog := runCkpTrial(t, seed, true)
			if len(refLog) != len(specLog) {
				t.Fatalf("seed %d: fired %d events with speculation, %d without",
					seed, len(specLog), len(refLog))
			}
			for i := range refLog {
				if refLog[i] != specLog[i] {
					t.Fatalf("seed %d: ckpFiring %d diverged: %+v vs %+v",
						seed, i, refLog[i], specLog[i])
				}
			}
		}
	})
}

// runCkpTrial executes one random program and returns its ckpFiring log.
// With speculate set, checkpoint/speculate/rewind cycles are interleaved
// between committed ops; the committed op stream is drawn from its own
// rng stream so it is identical either way.
func runCkpTrial(t *testing.T, seed int64, speculate bool) []ckpFiring {
	t.Helper()
	sim := New()
	var log []ckpFiring
	ops := rng.New(seed)            // committed op stream (shared)
	spec := rng.New(seed ^ 0x5EC04) // speculation decisions (spec run only)
	p := &ckpProgram{sim: sim, log: &log}
	cp := &Checkpoint{}

	for i := 0; i < 120; i++ {
		p.op(ops.Next(), ops.Next(), ops.Next())
		if speculate && spec.Intn(4) == 0 {
			// Checkpoint, run speculative garbage, rewind. The garbage
			// shares no rng state with the committed stream.
			sim.Save(cp)
			preLog := len(log)
			burst := 1 + spec.Intn(8)
			for j := 0; j < burst; j++ {
				switch spec.Intn(4) {
				case 0, 1:
					at := sim.Now() + float64(spec.Intn(40))/10
					sim.ScheduleKeyed(at, uint64(spec.Intn(5)), "spec", func() {
						log = append(log, ckpFiring{at: at, key: 99, label: "spec"})
					})
				case 2:
					if len(p.held) > 0 {
						sim.Cancel(p.held[spec.Intn(len(p.held))])
					}
				case 3:
					sim.RunUntil(sim.Now() + float64(spec.Intn(25))/10)
				}
			}
			sim.Rewind(cp)
			// Everything the speculation fired is rolled back.
			log = log[:preLog]
			if sim.Now() != cp.Now() {
				t.Fatalf("rewind left clock at %v, checkpoint at %v", sim.Now(), cp.Now())
			}
			if sim.Pending() != cp.Pending() {
				t.Fatalf("rewind left %d pending, checkpoint had %d", sim.Pending(), cp.Pending())
			}
		}
	}
	sim.Run()
	return log
}

// TestCheckpointHandleValidity checks the handle contract across a
// rewind: a handle to an event pending at the save is valid again after
// the rewind even if the event fired (and its slot was recycled) during
// speculation; a handle taken during speculation is stale after the
// rewind.
func TestCheckpointHandleValidity(t *testing.T) {
	t.Run(BackendHeap.String(), func(t *testing.T) {
		sim := New()
		fired := 0
		committed := sim.Schedule(5, "committed", func() { fired++ })
		cp := &Checkpoint{}
		sim.Save(cp)

		// Speculate: fire the committed event, recycle its slot.
		specEv := sim.Schedule(7, "spec", func() {})
		sim.RunUntil(6)
		if committed.Scheduled() {
			t.Fatal("committed event still scheduled after ckpFiring")
		}
		reused := sim.Schedule(9, "reuse", func() {}) // likely reuses the freed slot

		sim.Rewind(cp)
		if fired != 1 {
			t.Fatalf("speculation fired %d events, want 1", fired)
		}
		if !committed.Scheduled() {
			t.Fatal("committed handle must be valid again after rewind")
		}
		if committed.At() != 5 || committed.Label() != "committed" {
			t.Fatalf("restored event = (%v, %q), want (5, committed)", committed.At(), committed.Label())
		}
		if specEv.Scheduled() || reused.Scheduled() {
			t.Fatal("handles taken during speculation must be stale after rewind")
		}
		if sim.Cancel(specEv) || sim.Cancel(reused) {
			t.Fatal("cancelling a speculative handle after rewind must be a no-op")
		}
		// Replay: the committed event fires again, exactly once.
		sim.Run()
		if fired != 2 {
			t.Fatalf("replay fired %d total, want 2", fired)
		}
	})
}

// TestSyncClock exercises the bidirectional clock move and its guards.
func TestSyncClock(t *testing.T) {
	sim := New()
	sim.Schedule(10, "ev", func() {})
	sim.SyncClock(8) // advance toward the pending event
	if sim.Now() != 8 {
		t.Fatalf("Now() = %v, want 8", sim.Now())
	}
	sim.SyncClock(3) // regress: no event fired yet
	if sim.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", sim.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SyncClock past a pending event must panic")
			}
		}()
		sim.SyncClock(11)
	}()
	sim.Run()
	if sim.LastFired() != 10 {
		t.Fatalf("LastFired() = %v, want 10", sim.LastFired())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SyncClock before the last fired event must panic")
			}
		}()
		sim.SyncClock(9)
	}()
	sim.SyncClock(10) // exactly at the last fired event is legal
}

// TestCheckpointSteadyStateAllocs verifies that a save/speculate/rewind
// round allocates nothing once the checkpoint buffers are warm — the
// contract behind the optimistic mode's 0 allocs/op bench gate.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	sim := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		sim.ScheduleKeyed(float64(i), uint64(i), "warm", fn)
	}
	cp := &Checkpoint{}
	sim.Save(cp)
	sim.Rewind(cp) // warm both buffer sets
	allocs := testing.AllocsPerRun(100, func() {
		sim.Save(cp)
		sim.RunUntil(sim.Now() + 4)
		sim.Rewind(cp)
	})
	if allocs > 0 {
		t.Fatalf("save/run/rewind cycle allocates %v/op, want 0", allocs)
	}
	if sim.Pending() != 64 {
		t.Fatalf("pending = %d, want 64", sim.Pending())
	}
	if !math.IsInf(sim.LastFired(), -1) {
		t.Fatalf("LastFired = %v after rewind to pre-run state, want -Inf", sim.LastFired())
	}
}

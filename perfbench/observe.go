package main

import (
	"sync/atomic"
)

// counters observes one run through the hooks the simulator already
// exposes: des.Observer (EventScheduled/Fired/Cancelled), netsim's
// SyncObserver (SyncWindow) and periodic.Observer (RoundCompleted).
// Partitioned runs call the des hooks from one goroutine per logical
// process, so every counter is atomic.
type counters struct {
	fired, scheduled, cancelled atomic.Uint64
	depthMax                    atomic.Int64
	// windows and rollbacks count coordination rounds and rolled-back
	// LP-rounds. rollbackDepthMax is written only by the coordinator,
	// between windows, and read after RunUntil returns.
	windows, rollbacks atomic.Uint64
	rollbackDepthMax   float64
	// rounds counts periodic-model cluster firings, expirations the
	// router timer expirations they fire together (Σ cluster sizes).
	rounds, expirations atomic.Uint64
}

func (c *counters) EventScheduled(_ float64, depth int) {
	c.scheduled.Add(1)
	for d := int64(depth); ; {
		m := c.depthMax.Load()
		if d <= m || c.depthMax.CompareAndSwap(m, d) {
			return
		}
	}
}

func (c *counters) EventFired(float64, int) { c.fired.Add(1) }

func (c *counters) EventCancelled(float64, int) { c.cancelled.Add(1) }

func (c *counters) SyncWindow(_, _ float64, rollbacks int, maxDepth float64) {
	c.windows.Add(1)
	c.rollbacks.Add(uint64(rollbacks))
	if maxDepth > c.rollbackDepthMax {
		c.rollbackDepthMax = maxDepth
	}
}

func (c *counters) RoundCompleted(_ float64, size int) {
	c.rounds.Add(1)
	c.expirations.Add(uint64(size))
}

// events is the run's exact work count: DES events fired, or, for the
// periodic model, which runs no DES, timer expirations. Expirations, not
// cluster firings: a synchronized round is one firing of N routers and
// an unsynchronized one N firings of one, for about the same work, and
// how soon a run synchronizes depends on the seed.
func (c *counters) events() uint64 { return c.fired.Load() + c.expirations.Load() }

// tally is the plain sum of several runs' counters.
type tally struct {
	fired, scheduled, cancelled, depthMax uint64
	windows, rollbacks, rounds            uint64
	rollbackDepthMax                      float64
}

func (t *tally) add(c *counters) {
	t.fired += c.fired.Load()
	t.scheduled += c.scheduled.Load()
	t.cancelled += c.cancelled.Load()
	t.depthMax = max(t.depthMax, uint64(c.depthMax.Load()))
	t.windows += c.windows.Load()
	t.rollbacks += c.rollbacks.Load()
	t.rounds += c.rounds.Load()
	t.rollbackDepthMax = max(t.rollbackDepthMax, c.rollbackDepthMax)
}

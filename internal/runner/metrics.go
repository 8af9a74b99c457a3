package runner

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Metrics accumulates engine observer notifications for one experiment
// run. It implements both des.Observer and periodic.Observer (des.Time is
// a float64 alias, so plain float64 signatures satisfy both interfaces).
// All methods are lock-free atomic updates: the simulation thread pays a
// few nanoseconds per event and zero allocations, and the runner's
// progress goroutine may read concurrently.
type Metrics struct {
	scheduled atomic.Uint64
	fired     atomic.Uint64
	cancelled atomic.Uint64
	rounds    atomic.Uint64
	maxDepth  atomic.Int64

	// Partition-coordination counters, fed by netsim.SyncObserver
	// callbacks (one per window/round, from the coordinator only).
	// The float maxima are stored as math.Float64bits so the CAS max
	// works on non-negative values.
	syncWindows   atomic.Uint64
	syncInline    atomic.Uint64
	syncRollbacks atomic.Uint64
	rollbackDepth atomic.Uint64
	gvtLag        atomic.Uint64
}

// EventScheduled implements des.Observer.
func (m *Metrics) EventScheduled(at float64, depth int) {
	m.scheduled.Add(1)
	m.bumpDepth(int64(depth))
}

// EventFired implements des.Observer.
func (m *Metrics) EventFired(at float64, depth int) {
	m.fired.Add(1)
}

// EventCancelled implements des.Observer.
func (m *Metrics) EventCancelled(at float64, depth int) {
	m.cancelled.Add(1)
}

// RoundCompleted implements periodic.Observer.
func (m *Metrics) RoundCompleted(now float64, size int) {
	m.rounds.Add(1)
}

// SyncWindow implements netsim.SyncObserver: one call per coordination
// round of a partitioned run. Conservative windows carry zero lag and
// rollbacks; optimistic rounds report the commit frontier's lag and any
// rollback work the round paid for.
func (m *Metrics) SyncWindow(gvt, lag float64, rollbacks int, maxDepth float64) {
	m.syncWindows.Add(1)
	if rollbacks > 0 {
		m.syncRollbacks.Add(uint64(rollbacks))
	}
	bumpFloat(&m.rollbackDepth, maxDepth)
	bumpFloat(&m.gvtLag, lag)
}

// InlineWindow implements netsim.InlineWindowObserver: one call per
// round, in either sync mode, the coordinator ran without waking the
// workers.
func (m *Metrics) InlineWindow() { m.syncInline.Add(1) }

// bumpFloat is a CAS max over non-negative float64 values stored as
// bits (for non-negative IEEE-754 values, bit order is value order).
func bumpFloat(a *atomic.Uint64, v float64) {
	if v <= 0 {
		return
	}
	bits := math.Float64bits(v)
	for {
		cur := a.Load()
		if bits <= cur || a.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// bumpDepth is a CAS max: concurrent engines (replications on the job
// runner) may observe into one Metrics.
func (m *Metrics) bumpDepth(d int64) {
	for {
		cur := m.maxDepth.Load()
		if d <= cur || m.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// MetricsSnapshot is the manifest's per-experiment metrics block.
type MetricsSnapshot struct {
	EventsScheduled uint64 `json:"events_scheduled,omitempty"`
	EventsFired     uint64 `json:"events_fired,omitempty"`
	EventsCancelled uint64 `json:"events_cancelled,omitempty"`
	// EventQueuePeakDepth is the deepest the DES event queue got across
	// every engine this experiment ran.
	EventQueuePeakDepth int64  `json:"event_queue_peak_depth,omitempty"`
	RoundsCompleted     uint64 `json:"rounds_completed,omitempty"`
	// SyncWindows counts partition coordination rounds (conservative
	// windows or optimistic commit rounds); SyncWindowsInline those of
	// them the coordinator ran itself because at most one LP had work;
	// SyncRollbacks the LP rollbacks paid across them. RollbackDepthMax
	// and GVTLagMax are the deepest single rollback and the furthest any
	// LP clock ran past a commit frontier, in simulated seconds — the
	// realized bounded-rollback envelope for the run.
	SyncWindows       uint64  `json:"sync_windows,omitempty"`
	SyncWindowsInline uint64  `json:"sync_windows_inline,omitempty"`
	SyncRollbacks     uint64  `json:"sync_rollbacks,omitempty"`
	RollbackDepthMax  float64 `json:"rollback_depth_max,omitempty"`
	GVTLagMax         float64 `json:"gvt_lag_max,omitempty"`
}

// Snapshot returns the current counts, or nil if nothing was observed —
// experiments whose engines aren't instrumented get no metrics block
// rather than a block of zeros.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	if m == nil {
		return nil
	}
	s := &MetricsSnapshot{
		EventsScheduled:     m.scheduled.Load(),
		EventsFired:         m.fired.Load(),
		EventsCancelled:     m.cancelled.Load(),
		EventQueuePeakDepth: m.maxDepth.Load(),
		RoundsCompleted:     m.rounds.Load(),
		SyncWindows:         m.syncWindows.Load(),
		SyncWindowsInline:   m.syncInline.Load(),
		SyncRollbacks:       m.syncRollbacks.Load(),
		RollbackDepthMax:    math.Float64frombits(m.rollbackDepth.Load()),
		GVTLagMax:           math.Float64frombits(m.gvtLag.Load()),
	}
	if *s == (MetricsSnapshot{}) {
		return nil
	}
	return s
}

// progress renders a short live-status fragment for the runner's
// progress lines, or "" when nothing has been observed yet.
func (m *Metrics) progress() string {
	rounds := m.rounds.Load()
	fired := m.fired.Load()
	switch {
	case rounds > 0 && fired > 0:
		return fmt.Sprintf("%d rounds, %d events", rounds, fired)
	case rounds > 0:
		return fmt.Sprintf("%d rounds", rounds)
	case fired > 0:
		return fmt.Sprintf("%d events", fired)
	default:
		return ""
	}
}

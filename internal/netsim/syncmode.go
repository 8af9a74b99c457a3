package netsim

import (
	"fmt"
	"math"
	"os"
)

// SyncMode selects how a partitioned network's logical processes
// synchronize (see partition.go for the conservative scheme and
// optimistic.go for the Time-Warp-style one).
type SyncMode int

const (
	// SyncConservative is the default: bounded-window (YAWNS-style)
	// barrier execution, throttled by the cross-partition lookahead. It
	// is the reference implementation the optimistic mode is verified
	// against.
	SyncConservative SyncMode = iota
	// SyncOptimistic lets each logical process speculate past the
	// barrier under an adaptive lease, rolling back and replaying when a
	// straggler boundary arrival lands behind its clock. It wins when
	// the lookahead is much smaller than the inter-LP traffic gap
	// (metro/LAN topologies with sub-millisecond bridges).
	SyncOptimistic
)

// String returns the mode name used by ROUTESYNC_SYNC_MODE.
func (m SyncMode) String() string {
	switch m {
	case SyncOptimistic:
		return "optimistic"
	default:
		return "conservative"
	}
}

// SyncModeEnv is the environment variable selecting the ambient
// synchronization mode, mirroring ROUTESYNC_DES_BACKEND: it applies to
// every Partition call that does not pick a mode explicitly, so the full
// test suite can be swept under either mode without code changes.
const SyncModeEnv = "ROUTESYNC_SYNC_MODE"

// ParseSyncMode maps a mode name to a SyncMode; ok is false for names it
// does not recognize.
func ParseSyncMode(s string) (SyncMode, bool) {
	switch s {
	case "", "conservative":
		return SyncConservative, true
	case "optimistic":
		return SyncOptimistic, true
	default:
		return SyncConservative, false
	}
}

// DefaultSyncMode returns the mode selected by ROUTESYNC_SYNC_MODE,
// conservative when unset. It panics on an unrecognized value, so a typo
// cannot quietly run the default configuration.
func DefaultSyncMode() SyncMode {
	v := os.Getenv(SyncModeEnv)
	m, ok := ParseSyncMode(v)
	if !ok {
		panic(fmt.Sprintf("netsim: %s=%q: unknown sync mode (want \"conservative\" or \"optimistic\")", SyncModeEnv, v))
	}
	return m
}

// OptimisticConfig tunes the optimistic coordinator's adaptive lease:
// how far past the round's start (the globally earliest pending event,
// which bounds the eventual commit time from below) each logical process
// may speculate. The lease shrinks multiplicatively when the LP rolls
// back and grows when it commits a clean round, so rollback cascades
// stay bounded (Manita & Simonot's stability regime) while quiet LPs
// stretch toward the maximum.
//
// Zero fields take defaults derived from the topology's lookahead L
// (or 1 µs when every boundary link is zero-delay): MinLease = L,
// InitialLease = 64·L, MaxLease = 65536·L, Grow = 2, Shrink = 0.5.
// MinLease = L makes the floor exactly the conservative window, so a
// worst-case adversarial straggler schedule degrades to conservative
// performance rather than below it.
type OptimisticConfig struct {
	InitialLease float64
	MinLease     float64
	MaxLease     float64
	Grow         float64
	Shrink       float64
}

// withDefaults resolves zero fields against the topology lookahead.
func (c OptimisticConfig) withDefaults(lookahead float64) OptimisticConfig {
	if c.MinLease <= 0 {
		if lookahead > 0 && !math.IsInf(lookahead, 1) {
			c.MinLease = lookahead
		} else {
			c.MinLease = 1e-6
		}
	}
	if c.InitialLease <= 0 {
		c.InitialLease = c.MinLease * 64
	}
	if c.MaxLease <= 0 {
		c.MaxLease = c.MinLease * 65536
	}
	if c.Grow <= 1 {
		c.Grow = 2
	}
	if c.Shrink <= 0 || c.Shrink >= 1 {
		c.Shrink = 0.5
	}
	// MaxLease is the hard speculation bound: the initial lease is
	// clamped into [MinLease, MaxLease] rather than ever widening it.
	if c.MaxLease < c.MinLease {
		c.MaxLease = c.MinLease
	}
	if c.InitialLease < c.MinLease {
		c.InitialLease = c.MinLease
	}
	if c.InitialLease > c.MaxLease {
		c.InitialLease = c.MaxLease
	}
	return c
}

// partitionOpts collects Partition's optional configuration.
type partitionOpts struct {
	mode    SyncMode
	modeSet bool
	opt     OptimisticConfig
}

// PartitionOption configures Partition beyond the node assignment.
type PartitionOption func(*partitionOpts)

// WithSyncMode selects the synchronization mode explicitly, overriding
// ROUTESYNC_SYNC_MODE.
func WithSyncMode(m SyncMode) PartitionOption {
	return func(o *partitionOpts) {
		o.mode = m
		o.modeSet = true
	}
}

// WithOptimistic selects optimistic mode with an explicit lease
// configuration (zero fields still take defaults).
func WithOptimistic(cfg OptimisticConfig) PartitionOption {
	return func(o *partitionOpts) {
		o.mode = SyncOptimistic
		o.modeSet = true
		o.opt = cfg
	}
}

// WithOptimisticConfig sets the lease configuration to use when the run
// is optimistic — via ROUTESYNC_SYNC_MODE or a WithSyncMode option —
// without selecting the mode itself. Scenario builders use it to bound
// speculation on topologies they know (a lease cap bounds rollback depth
// and every speculation buffer's high-water mark) while leaving the
// conservative/optimistic choice to the caller or the environment.
func WithOptimisticConfig(cfg OptimisticConfig) PartitionOption {
	return func(o *partitionOpts) { o.opt = cfg }
}

// SyncStats summarizes a partitioned network's synchronization work so
// far: how many coordination rounds ran, how much speculation was undone,
// and how far local clocks ran past the commit frontier (GVT). All
// counters are cumulative across RunUntil calls and are only updated
// between windows on the coordinator, so reading them between calls is
// race-free.
type SyncStats struct {
	Mode SyncMode
	// Windows counts coordination rounds (barriers in conservative mode,
	// speculate/commit rounds in optimistic mode).
	Windows uint64
	// InlineWindows counts the conservative windows the coordinator ran
	// on its own goroutine because at most one LP had an event in them;
	// they are included in Windows.
	InlineWindows uint64
	// Rollbacks counts LP-rounds undone: one per logical process per
	// round in which it executed past the commit bound.
	Rollbacks uint64
	// MaxRollbackDepth is the largest distance (simulated seconds)
	// between a rolled-back LP's last executed event and the commit
	// bound it was rolled back to. Bounded by MaxLease by construction.
	MaxRollbackDepth float64
	// TotalRollbackDepth sums that distance over all rollbacks.
	TotalRollbackDepth float64
	// MaxGVTLag is the largest distance any LP's clock ran past the
	// round's commit bound — the speculation depth the lease permitted.
	MaxGVTLag float64
	// SerialEvents counts events executed one-at-a-time by the
	// coordinator to resolve same-instant cascades across zero-delay
	// boundary links.
	SerialEvents uint64
}

// SyncStats returns the accumulated synchronization statistics.
func (n *Network) SyncStats() SyncStats { return n.syncStats }

// SyncMode returns the partitioned network's synchronization mode
// (conservative while unpartitioned).
func (n *Network) SyncMode() SyncMode { return n.syncStats.Mode }

// SyncObserver receives one callback per coordination round. A des
// Observer installed via SetObserver that also implements SyncObserver
// gets wired up automatically (the runner's metrics observer does).
// gvt is the round's commit frontier; lag is how far the furthest LP
// clock ran past it; rollbacks is the number of LPs rolled back this
// round and maxDepth the deepest of their rollbacks. Conservative
// windows report (windowEnd, 0, 0, 0). Called only from the
// coordinator, between windows.
type SyncObserver interface {
	SyncWindow(gvt, lag float64, rollbacks int, maxDepth float64)
}

// InlineWindowObserver is an optional extension of SyncObserver: an
// observer that also implements it hears one InlineWindow call per
// conservative window the coordinator ran itself (see
// SyncStats.InlineWindows), just before that window's SyncWindow call.
type InlineWindowObserver interface {
	InlineWindow()
}

// Checkpointable is state that must be saved and restored alongside a
// logical process's simulator in optimistic mode: routing tables, agent
// timers, workload accounting — anything mutated by events that might be
// rolled back. RestoreCheckpoint must leave the component bit-identical
// to its SaveCheckpoint state, so a deterministic replay regenerates
// exactly the speculated execution.
type Checkpointable interface {
	SaveCheckpoint()
	RestoreCheckpoint()
}

// CheckpointFuncs adapts a save/restore function pair to Checkpointable.
type CheckpointFuncs struct {
	Save    func()
	Restore func()
}

// SaveCheckpoint implements Checkpointable.
func (f CheckpointFuncs) SaveCheckpoint() { f.Save() }

// RestoreCheckpoint implements Checkpointable.
func (f CheckpointFuncs) RestoreCheckpoint() { f.Restore() }

// RegisterCheckpoint attaches per-component checkpoint hooks to the
// logical process owning the node. It is a no-op unless the network is
// partitioned in optimistic mode, so components register unconditionally
// from their constructors and pay nothing in other modes. The hooks run
// on the owner's partition goroutine at round boundaries.
func (n *Network) RegisterCheckpoint(owner *Node, c Checkpointable) {
	if n.syncStats.Mode != SyncOptimistic || owner.part == nil {
		return
	}
	owner.part.chk = append(owner.part.chk, c)
}

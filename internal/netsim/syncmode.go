package netsim

import (
	"fmt"
	"os"
)

// SyncMode selects how a partitioned network's logical processes
// synchronize. Both modes run the same round loop (see partition.go);
// they differ in the lease schedule and in whether LPs checkpoint.
type SyncMode int

const (
	// SyncConservative is the default: bounded-window (YAWNS-style)
	// rounds whose lease is pinned at the cross-partition lookahead, so
	// nothing ever rolls back and nothing is checkpointed.
	SyncConservative SyncMode = iota
	// SyncOptimistic lets each logical process speculate past the
	// lookahead under an adaptive lease, checkpointing every round it
	// runs and rolling back and replaying when a straggler boundary
	// arrival lands behind its clock. It commits in far fewer rounds
	// than conservative mode on low-lookahead topologies, but so far
	// runs slower in wall time (see DESIGN.md).
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

// DefaultSyncMode returns the mode selected by ROUTESYNC_SYNC_MODE,
// conservative when unset. It panics on an unrecognized value, so a typo
// cannot quietly run the default configuration.
func DefaultSyncMode() SyncMode {
	switch v := os.Getenv(SyncModeEnv); v {
	case "", "conservative":
		return SyncConservative
	case "optimistic":
		return SyncOptimistic
	default:
		panic(fmt.Sprintf("netsim: %s=%q: unknown sync mode (want \"conservative\" or \"optimistic\")", SyncModeEnv, v))
	}
}

// Lease schedule, in units of the lookahead L and per round: an
// optimistic lease starts at 64·L, halves when its LP rolls back and
// doubles when the LP commits a clean round, within [L, leaseMaxL·L].
// The floor is exactly the conservative window, so an adversarial
// straggler schedule degrades to conservative rounds, and the cap bounds
// rollback depth and every speculation buffer's high-water mark. On the
// metro LAN's 100 µs bridges the cap is 0.5 s, about the longest quiet
// gap cross-segment traffic leaves.
const (
	leaseInitialL = 64
	leaseMaxL     = 5000
	leaseGrow     = 2
	leaseShrink   = 0.5
)

// leaseBounds is the lease schedule resolved against the lookahead.
type leaseBounds struct {
	min, initial, max float64
}

// leaseSchedule resolves the lease schedule for mode: conservative
// leases are pinned at the lookahead. With no boundary link the
// lookahead is +Inf and every round runs to the horizon.
func leaseSchedule(mode SyncMode, lookahead float64) leaseBounds {
	if mode == SyncConservative {
		return leaseBounds{min: lookahead, initial: lookahead, max: lookahead}
	}
	return leaseBounds{min: lookahead, initial: lookahead * leaseInitialL, max: lookahead * leaseMaxL}
}

// partitionOpts collects Partition's optional configuration.
type partitionOpts struct {
	mode SyncMode
}

// PartitionOption configures Partition beyond the node assignment.
type PartitionOption func(*partitionOpts)

// WithSyncMode selects the synchronization mode explicitly, overriding
// ROUTESYNC_SYNC_MODE.
func WithSyncMode(m SyncMode) PartitionOption {
	return func(o *partitionOpts) { o.mode = m }
}

// SyncStats summarizes a partitioned network's synchronization work so
// far: how many coordination rounds ran, how much speculation was undone,
// and how far local clocks ran past the commit frontier (GVT). All
// counters are cumulative across RunUntil calls and are only updated
// between windows on the coordinator, so reading them between calls is
// race-free.
type SyncStats struct {
	Mode SyncMode
	// Windows counts coordination rounds, the final horizon pass of each
	// RunUntil call included.
	Windows uint64
	// InlineWindows counts the rounds the coordinator ran on its own
	// goroutine because at most one LP had an event before its bound;
	// they are included in Windows.
	InlineWindows uint64
	// Rollbacks counts LP-rounds undone: one per logical process per
	// round in which it executed past the commit bound.
	Rollbacks uint64
	// MaxRollbackDepth is the largest distance (simulated seconds)
	// between a rolled-back LP's last executed event and the commit
	// bound it was rolled back to. Bounded by the lease cap by
	// construction.
	MaxRollbackDepth float64
	// TotalRollbackDepth sums that distance over all rollbacks.
	TotalRollbackDepth float64
	// MaxGVTLag is the largest distance any LP's bound ran past the
	// round's commit bound — the speculation depth the lease permitted.
	MaxGVTLag float64
}

// SyncStats returns the accumulated synchronization statistics.
func (n *Network) SyncStats() SyncStats { return n.syncStats }

// SyncMode returns the partitioned network's synchronization mode
// (conservative while unpartitioned).
func (n *Network) SyncMode() SyncMode { return n.syncStats.Mode }

// SyncObserver receives one callback per coordination round. A des
// Observer installed via SetObserver that also implements SyncObserver
// gets wired up automatically (the runner's metrics observer does).
// gvt is the round's commit bound (the horizon for the final pass of a
// RunUntil call); lag is how far the furthest LP bound ran past it;
// rollbacks is the number of LPs rolled back this round and maxDepth the
// deepest of their rollbacks. Conservative rounds never roll back or run
// past the commit bound, so they report (gvt, 0, 0, 0). Called only from
// the coordinator, between rounds.
type SyncObserver interface {
	SyncWindow(gvt, lag float64, rollbacks int, maxDepth float64)
}

// InlineWindowObserver is an optional extension of SyncObserver: an
// observer that also implements it hears one InlineWindow call per round
// the coordinator ran itself, in either mode (see
// SyncStats.InlineWindows), just before that round's SyncWindow call.
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

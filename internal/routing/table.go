package routing

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"routesync/internal/netsim"
)

// Route is one routing-table entry (Metric sits by Local: 48 bytes).
type Route struct {
	Dest    netsim.NodeID
	NextHop netsim.NodeID
	Via     netsim.Medium
	// Updated is the last time this route was installed or refreshed.
	Updated float64
	Metric  uint32
	// Local marks the router's own address (metric 0, never expires).
	Local bool
}

// Table is a distance-vector routing table: one slice of the known
// routes (not one slot per node id) kept sorted by destination, the
// order every router exports in, so applying an update is a merge,
// aging one compaction pass and exporting one scan. With its retained
// scratch, the steady-state update cycle allocates nothing.
type Table struct {
	routes   []Route
	infinity uint32
	holdDown float64
	// holdTill is keyed by destination rather than stored in the route:
	// a hold-down must outlive the garbage-collected route it guards.
	holdTill map[netsim.NodeID]float64

	// pend holds new routes until they are merged in (insertPending).
	pend []pendingRoute
	// inst/unre back ApplyResult's slices; expU/expD back Expire's.
	inst, unre []netsim.NodeID
	expU, expD []netsim.NodeID
}

// pendingRoute is a route learned from the update being applied, to be
// inserted before routes[pos]; the update gives its hop, medium and time.
type pendingRoute struct {
	pos    int
	dest   netsim.NodeID
	metric uint32
}

// NewTable creates a table with the given unreachable metric.
func NewTable(infinity uint32) *Table {
	return &Table{
		infinity: infinity,
		holdTill: make(map[netsim.NodeID]float64),
	}
}

// SetHoldDown enables IGRP-style hold-down: after a destination becomes
// unreachable, better news from a different next hop is rejected for d
// seconds. Zero disables.
func (t *Table) SetHoldDown(d float64) {
	if d < 0 {
		panic("routing: negative hold-down")
	}
	t.holdDown = d
}

// HeldDown reports whether dest is inside its hold-down window at time
// now.
func (t *Table) HeldDown(dest netsim.NodeID, now float64) bool {
	return now < t.holdTill[dest]
}

func (t *Table) startHold(dest netsim.NodeID, now float64) {
	if t.holdDown > 0 {
		t.holdTill[dest] = now + t.holdDown
	}
}

// Infinity returns the unreachable metric.
func (t *Table) Infinity() uint32 { return t.infinity }

// Len returns the number of entries, including unreachable ones awaiting
// garbage collection.
func (t *Table) Len() int { return len(t.routes) }

// find returns the index of dest's route, or the index it would be
// inserted at and false.
func (t *Table) find(dest netsim.NodeID) (int, bool) {
	// Node ids are dense from 0, so a table that knows every node holds
	// dest at index dest; try that before searching.
	if i := int(dest); i >= 0 && i < len(t.routes) && t.routes[i].Dest == dest {
		return i, true
	}
	return slices.BinarySearchFunc(t.routes, dest, cmpDest)
}

func cmpDest(r Route, d netsim.NodeID) int { return cmp.Compare(r.Dest, d) }

// Get returns the route for dest, or nil. The pointer is valid until the
// table's next mutation (Apply, Expire, SetLocal, Reset or a restore).
func (t *Table) Get(dest netsim.NodeID) *Route {
	if i, ok := t.find(dest); ok {
		return &t.routes[i]
	}
	return nil
}

// SetLocal installs the router's own address with metric 0.
func (t *Table) SetLocal(self netsim.NodeID, now float64) {
	r := Route{Dest: self, NextHop: self, Updated: now, Local: true}
	if i, ok := t.find(self); ok {
		t.routes[i] = r
	} else {
		t.routes = slices.Insert(t.routes, i, r)
	}
}

// Routes returns a copy of the entries sorted by destination, for
// deterministic iteration (dumps, tests). Hot paths use ExportInto.
func (t *Table) Routes() []Route { return slices.Clone(t.routes) }

// Reset clears routes and hold-downs in place for a cold restart
// (router crash), keeping buffer capacity, infinity and hold-down.
func (t *Table) Reset() {
	t.routes = t.routes[:0]
	clear(t.holdTill)
}

// tableCkpt shadows a table's contents for optimistic rollback: route
// values and hold-down windows, flattened into reusable buffers.
type tableCkpt struct {
	routes []Route
	holds  []holdEntry
}

type holdEntry struct {
	dest netsim.NodeID
	till float64
}

// saveInto copies the table into c, reusing c's buffers.
func (t *Table) saveInto(c *tableCkpt) {
	c.routes = append(c.routes[:0], t.routes...)
	c.holds = c.holds[:0]
	for dest, till := range t.holdTill {
		c.holds = append(c.holds, holdEntry{dest, till})
	}
}

// restoreFrom rebuilds the table from c in place, so a warm restore
// allocates nothing.
func (t *Table) restoreFrom(c *tableCkpt) {
	t.routes = append(t.routes[:0], c.routes...)
	clear(t.holdTill)
	for _, h := range c.holds {
		t.holdTill[h.dest] = h.till
	}
}

// ApplyResult reports what an incoming update changed.
//
// Installed and Unreachable are backed by scratch the table reuses: they
// are valid until the next Apply/ApplyCost call on the same table, which
// is the lifetime every caller needs (agents react to the result before
// processing the next update).
type ApplyResult struct {
	// Changed is true if any route was added, improved, or re-costed.
	Changed bool
	// Worsened is true if any route's metric increased (including to
	// infinity) — the trigger condition for a triggered update.
	Worsened bool
	// Installed lists destinations whose forwarding entry must be
	// (re)programmed into the node FIB.
	Installed []netsim.NodeID
	// Unreachable lists destinations that just became unreachable.
	Unreachable []netsim.NodeID
}

// Apply folds one neighbor's update into the table (Bellman–Ford with the
// "believe your next hop" rule): the advertised metric plus one hop,
// capped at infinity. from is the advertising neighbor, via the medium
// the update arrived on, now the current time.
func (t *Table) Apply(m Message, via netsim.Medium, now float64) ApplyResult {
	return t.ApplyCost(m, via, now, 1)
}

// ApplyCost is Apply with an explicit ingress link cost — the metric
// charged for the hop to the advertising neighbor. Hop-count protocols
// (RIP) use cost 1; delay- or bandwidth-weighted protocols (Hello, IGRP's
// composite metric in spirit) supply larger costs for slower media. Cost
// must be at least 1 (a zero-cost hop would allow counting loops that
// never age).
//
// An ascending run of entries is merged with a forward cursor and its
// new routes inserted when the run ends; an entry not above the previous
// one restarts the cursor, so any entry order works.
func (t *Table) ApplyCost(m Message, via netsim.Medium, now float64, cost uint32) ApplyResult {
	if cost < 1 {
		panic("routing: link cost must be at least 1")
	}
	res := ApplyResult{Installed: t.inst[:0], Unreachable: t.unre[:0]}
	from := m.Router

	// The neighbor itself is reachable at one hop — distance-vector
	// protocols learn adjacency from the updates themselves.
	i, ok := t.find(from)
	t.applyOne(Entry{Dest: from, Metric: 0}, i, ok, from, via, now, cost, &res)
	t.insertPending(from, via, now)

	i = 0
	prev := netsim.NodeID(-1)
	for _, e := range m.Entries {
		if e.Dest == from {
			continue // the neighbor's self-route was handled above
		}
		if e.Dest <= prev {
			t.insertPending(from, via, now)
			i = 0
		}
		prev = e.Dest
		for i < len(t.routes) && t.routes[i].Dest < e.Dest {
			i++
		}
		t.applyOne(e, i, i < len(t.routes) && t.routes[i].Dest == e.Dest, from, via, now, cost, &res)
	}
	t.insertPending(from, via, now)
	// Keep the (possibly grown) backing arrays for the next call.
	t.inst = res.Installed
	t.unre = res.Unreachable
	return res
}

// applyOne applies entry e, whose route is routes[i] when found, and
// otherwise would be inserted before routes[i].
func (t *Table) applyOne(e Entry, i int, found bool, from netsim.NodeID, via netsim.Medium, now float64, cost uint32, res *ApplyResult) {
	cand := e.Metric + cost
	if cand > t.infinity || cand < e.Metric { // cap, guard overflow
		cand = t.infinity
	}
	if !found {
		if cand >= t.infinity {
			return // don't learn unreachable routes
		}
		if t.HeldDown(e.Dest, now) {
			return // hold-down: distrust resurrection rumors
		}
		t.pend = append(t.pend, pendingRoute{i, e.Dest, cand})
		res.Changed = true
		res.Installed = append(res.Installed, e.Dest)
		return
	}
	cur := &t.routes[i]
	switch {
	case cur.Local:
		// never replace our own address
	case cur.NextHop == from:
		// Updates from the current next hop are always believed — this
		// is how bad news propagates. Repeated unreachable
		// advertisements do not refresh the entry, so garbage
		// collection can reclaim dead routes (RFC 1058 §3.6 deletion
		// semantics).
		if cand < t.infinity {
			cur.Updated = now
		}
		cur.Via = via
		if cand != cur.Metric {
			if cand > cur.Metric {
				res.Worsened = true
			}
			cur.Metric = cand
			res.Changed = true
			if cand >= t.infinity {
				t.startHold(e.Dest, now)
				res.Unreachable = append(res.Unreachable, e.Dest)
			} else {
				res.Installed = append(res.Installed, e.Dest)
			}
		}
	case cand < cur.Metric:
		if t.HeldDown(e.Dest, now) && cur.Metric >= t.infinity {
			// hold-down: an unreachable destination stays down until
			// the hold expires, whatever other neighbors claim
			return
		}
		cur.Metric = cand
		cur.NextHop = from
		cur.Via = via
		cur.Updated = now
		res.Changed = true
		res.Installed = append(res.Installed, e.Dest)
	}
}

// insertPending merges the pending new routes, learned from neighbor
// from over via at now, into the table in one backward pass. Their
// positions and destinations ascend together.
func (t *Table) insertPending(from netsim.NodeID, via netsim.Medium, now float64) {
	k := len(t.pend)
	if k == 0 {
		return
	}
	end := len(t.routes)
	t.routes = slices.Grow(t.routes, k)[:end+k]
	for j := k - 1; j >= 0; j-- {
		p := t.pend[j]
		copy(t.routes[p.pos+j+1:], t.routes[p.pos:end])
		t.routes[p.pos+j] = Route{Dest: p.dest, Metric: p.metric, NextHop: from, Via: via, Updated: now}
		end = p.pos
	}
	t.pend = t.pend[:0]
}

// Expire ages routes: entries unrefreshed for longer than timeout are
// marked unreachable; unreachable entries older than gcAfter are deleted.
// It returns the destinations that just became unreachable (for triggered
// updates) and those deleted, each in ascending order. Like
// ApplyResult's slices, both returned lists are scratch-backed and valid
// until the next Expire call.
func (t *Table) Expire(now, timeout, gcAfter float64) (newlyUnreachable, deleted []netsim.NodeID) {
	newlyUnreachable = t.expU[:0]
	deleted = t.expD[:0]
	w := 0
	for i := range t.routes {
		r := &t.routes[i]
		age := now - r.Updated
		switch {
		case r.Local:
		case r.Metric >= t.infinity:
			if age > gcAfter {
				deleted = append(deleted, r.Dest)
				continue
			}
		case age > timeout:
			r.Metric = t.infinity
			t.startHold(r.Dest, now)
			newlyUnreachable = append(newlyUnreachable, r.Dest)
		}
		t.routes[w] = *r
		w++
	}
	t.routes = t.routes[:w]
	t.expU = newlyUnreachable
	t.expD = deleted
	return newlyUnreachable, deleted
}

// String renders the table for diagnostics, one route per line, sorted
// by destination.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routing table (%d routes, infinity %d)\n", len(t.routes), t.infinity)
	for _, r := range t.routes {
		flag := ""
		if r.Local {
			flag = " local"
		}
		metric := fmt.Sprintf("%d", r.Metric)
		if r.Metric >= t.infinity {
			metric = "unreachable"
		}
		fmt.Fprintf(&b, "  dest %-6d metric %-11s via %-6d updated %.2f%s\n",
			r.Dest, metric, r.NextHop, r.Updated, flag)
	}
	return b.String()
}

// Export builds the advertisement entries for an update sent on `on`,
// applying split horizon when enabled: routes learned over `on` are
// omitted, or — with poison reverse — advertised as unreachable. Local
// routes are advertised with metric 0.
func (t *Table) Export(on netsim.Medium, splitHorizon, poisonReverse bool) []Entry {
	return t.ExportInto(nil, on, splitHorizon, poisonReverse)
}

// ExportInto is Export appending onto dst — agents pass a per-agent
// scratch slice so steady-state update preparation allocates nothing.
func (t *Table) ExportInto(dst []Entry, on netsim.Medium, splitHorizon, poisonReverse bool) []Entry {
	for i := range t.routes {
		r := &t.routes[i]
		if splitHorizon && !r.Local && r.Via == on {
			if poisonReverse {
				dst = append(dst, Entry{Dest: r.Dest, Metric: t.infinity})
			}
			continue
		}
		dst = append(dst, Entry{Dest: r.Dest, Metric: r.Metric})
	}
	return dst
}

package routing

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"routesync/internal/netsim"
)

// refTable is the map-keyed distance-vector table the slice-backed Table
// replaced, kept as the reference engine for the differential test: it
// applies every update entry by entry with one map lookup each and sorts
// whenever it needs destination order.
type refTable struct {
	routes   map[netsim.NodeID]*Route
	infinity uint32
	holdDown float64
	holdTill map[netsim.NodeID]float64
}

func newRefTable(infinity uint32) *refTable {
	return &refTable{
		routes:   make(map[netsim.NodeID]*Route),
		infinity: infinity,
		holdTill: make(map[netsim.NodeID]float64),
	}
}

func (t *refTable) SetHoldDown(d float64) { t.holdDown = d }

func (t *refTable) HeldDown(dest netsim.NodeID, now float64) bool {
	return now < t.holdTill[dest]
}

func (t *refTable) startHold(dest netsim.NodeID, now float64) {
	if t.holdDown > 0 {
		t.holdTill[dest] = now + t.holdDown
	}
}

func (t *refTable) Len() int { return len(t.routes) }

func (t *refTable) SetLocal(self netsim.NodeID, now float64) {
	t.routes[self] = &Route{Dest: self, NextHop: self, Updated: now, Local: true}
}

// sorted returns the routes in destination order.
func (t *refTable) sorted() []*Route {
	rs := make([]*Route, 0, len(t.routes))
	for _, r := range t.routes {
		rs = append(rs, r)
	}
	slices.SortFunc(rs, func(a, b *Route) int { return cmp.Compare(a.Dest, b.Dest) })
	return rs
}

// Routes returns a copy of the entries sorted by destination.
func (t *refTable) Routes() []Route {
	var rs []Route
	for _, r := range t.sorted() {
		rs = append(rs, *r)
	}
	return rs
}

func (t *refTable) Reset() {
	clear(t.routes)
	clear(t.holdTill)
}

// refCkpt is a deep copy of a refTable's contents.
type refCkpt struct {
	routes   map[netsim.NodeID]Route
	holdTill map[netsim.NodeID]float64
}

func (t *refTable) save() refCkpt {
	c := refCkpt{routes: make(map[netsim.NodeID]Route), holdTill: make(map[netsim.NodeID]float64)}
	for d, r := range t.routes {
		c.routes[d] = *r
	}
	for d, till := range t.holdTill {
		c.holdTill[d] = till
	}
	return c
}

func (t *refTable) restore(c refCkpt) {
	clear(t.routes)
	for d, r := range c.routes {
		r := r
		t.routes[d] = &r
	}
	clear(t.holdTill)
	for d, till := range c.holdTill {
		t.holdTill[d] = till
	}
}

func (t *refTable) ApplyCost(m Message, via netsim.Medium, now float64, cost uint32) ApplyResult {
	var res ApplyResult
	from := m.Router
	t.applyOne(Entry{Dest: from, Metric: 0}, from, via, now, cost, &res)
	for _, e := range m.Entries {
		if e.Dest == from {
			continue
		}
		t.applyOne(e, from, via, now, cost, &res)
	}
	return res
}

func (t *refTable) applyOne(e Entry, from netsim.NodeID, via netsim.Medium, now float64, cost uint32, res *ApplyResult) {
	cand := e.Metric + cost
	if cand > t.infinity || cand < e.Metric {
		cand = t.infinity
	}
	cur, ok := t.routes[e.Dest]
	switch {
	case ok && cur.Local:
		return
	case !ok:
		if cand >= t.infinity {
			return
		}
		if t.HeldDown(e.Dest, now) {
			return
		}
		t.routes[e.Dest] = &Route{Dest: e.Dest, Metric: cand, NextHop: from, Via: via, Updated: now}
		res.Changed = true
		res.Installed = append(res.Installed, e.Dest)
	case cur.NextHop == from:
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

func (t *refTable) Expire(now, timeout, gcAfter float64) (newlyUnreachable, deleted []netsim.NodeID) {
	for dest, r := range t.routes {
		if r.Local {
			continue
		}
		age := now - r.Updated
		if r.Metric >= t.infinity {
			if age > gcAfter {
				delete(t.routes, dest)
				deleted = append(deleted, dest)
			}
			continue
		}
		if age > timeout {
			r.Metric = t.infinity
			t.startHold(dest, now)
			newlyUnreachable = append(newlyUnreachable, dest)
		}
	}
	slices.Sort(newlyUnreachable)
	slices.Sort(deleted)
	return newlyUnreachable, deleted
}

func (t *refTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routing table (%d routes, infinity %d)\n", len(t.routes), t.infinity)
	for _, r := range t.sorted() {
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

func (t *refTable) ExportInto(dst []Entry, on netsim.Medium, splitHorizon, poisonReverse bool) []Entry {
	for _, r := range t.sorted() {
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

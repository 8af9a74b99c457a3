package des

import (
	"fmt"
	"os"
	"sort"
)

// Backend selects the event-queue data structure behind a Simulator. Both
// backends implement the same contract — events fire in (time, insertion
// order) — and are differential-tested to deliver bit-identical orderings
// for any schedule/cancel program, so the choice is purely a performance
// knob: the indexed binary heap pays O(log n) per operation with a small
// constant, the calendar queue O(1) amortized once the queue is deep
// enough for bucketing to pay for itself (tens of thousands of pending
// events; see the DESScheduleFire benchmarks).
type Backend int

const (
	// BackendHeap is the indexed binary min-heap — the reference backend
	// and the default.
	BackendHeap Backend = iota
	// BackendCalendar is the Brown-style calendar queue: bucketed by time
	// with adaptive bucket width, O(1) amortized schedule/fire at any
	// queue depth, stable FIFO tie-breaking via the same insertion
	// sequence numbers the heap uses.
	BackendCalendar
)

// String returns the backend name used by ROUTESYNC_DES_BACKEND and the
// manifest metrics block.
func (b Backend) String() string {
	switch b {
	case BackendHeap:
		return "heap"
	case BackendCalendar:
		return "calendar"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps a backend name to its Backend value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "heap":
		return BackendHeap, nil
	case "calendar":
		return BackendCalendar, nil
	default:
		return BackendHeap, fmt.Errorf("des: unknown backend %q (want \"heap\" or \"calendar\")", s)
	}
}

// BackendEnv is the environment variable consulted by DefaultBackend.
const BackendEnv = "ROUTESYNC_DES_BACKEND"

// DefaultBackend returns the backend New uses: BackendHeap unless
// ROUTESYNC_DES_BACKEND names another. It panics on an unrecognized
// value, so a typo cannot quietly run the default configuration.
func DefaultBackend() Backend {
	v := os.Getenv(BackendEnv)
	if v == "" {
		return BackendHeap
	}
	b, err := ParseBackend(v)
	if err != nil {
		panic(fmt.Sprintf("des: %s=%q: %v", BackendEnv, v, err))
	}
	return b
}

// calendar is the calendar-queue state embedded in a Simulator. Buckets
// partition time into consecutive "days" of one width each; day d maps to
// physical bucket d mod nbuckets, so one physical bucket holds every
// year's day-d events. Each bucket is kept sorted by (at, seq); curVB is
// a lower bound on every pending event's virtual day, which lets the
// dequeue scan walk days in increasing time order and stop at the first
// bucket head that belongs to the day being visited.
type calendar struct {
	buckets [][]int32
	mask    int   // len(buckets)-1; len is a power of two
	width   Time  // seconds per day
	curVB   int64 // scan cursor: no pending event has a virtual day below this
	size    int

	// resize scratch, reused so steady state never allocates
	slots []int32
	times []float64
}

// calMinBuckets is the initial and minimum bucket count. calInitWidth
// seeds the width before the first resize gathers a real sample.
const (
	calMinBuckets = 64
	calInitWidth  = Time(1)
)

// calMaxVB caps virtual-day indices so day arithmetic near +Inf or
// astronomically large timestamps cannot overflow. Events clamped to the
// cap are only ever dequeued through the direct-search fallback, which
// compares times, not days.
const calMaxVB = int64(1) << 62

// vbFor maps a timestamp to its virtual day under the current width.
func (c *calendar) vbFor(at Time) int64 {
	q := at / c.width
	if !(q < float64(calMaxVB)) {
		return calMaxVB
	}
	return int64(q)
}

// calInit sets up the empty calendar. Called lazily by the first push so
// heap-backed simulators never pay for it.
func (c *calendar) init() {
	c.buckets = make([][]int32, calMinBuckets)
	c.mask = calMinBuckets - 1
	c.width = calInitWidth
	c.curVB = 0
	c.size = 0
}

// calPush inserts a pooled slot, keeping its bucket sorted by (at, seq).
func (s *Simulator) calPush(slot int32) {
	c := &s.cal
	if c.buckets == nil {
		c.init()
	}
	if c.size >= 2*(c.mask+1) {
		s.calResize(2 * (c.mask + 1))
	}
	ev := &s.pool[slot]
	vb := c.vbFor(ev.at)
	if vb < c.curVB {
		// Legal when the clock sits before the current minimum: the new
		// event becomes the earliest pending day, so the scan cursor must
		// regress or the dequeue scan would fire a later event first.
		c.curVB = vb
	}
	b := int(vb) & c.mask
	list := c.buckets[b]
	i := len(list)
	for i > 0 && s.less(slot, list[i-1]) {
		i--
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = slot
	c.buckets[b] = list
	ev.bucket = int32(b)
	ev.index = int32(i)
	for j := i + 1; j < len(list); j++ {
		s.pool[list[j]].index = int32(j)
	}
	c.size++
}

// calRemove deletes a queued slot from its bucket, preserving order.
func (s *Simulator) calRemove(slot int32) {
	c := &s.cal
	ev := &s.pool[slot]
	b, i := int(ev.bucket), int(ev.index)
	list := c.buckets[b]
	copy(list[i:], list[i+1:])
	list = list[:len(list)-1]
	c.buckets[b] = list
	for j := i; j < len(list); j++ {
		s.pool[list[j]].index = int32(j)
	}
	c.size--
	if n := c.mask + 1; c.size < n/4 && n > calMinBuckets {
		s.calResize(n / 2)
	}
}

// calPeek locates the earliest pending slot — (at, seq) order, identical
// to the heap's — and advances the scan cursor to its day. Returns -1 on
// an empty queue. Amortized O(1): the cursor only moves forward (except
// for the calPush regression above), so days are visited once each.
func (s *Simulator) calPeek() int32 {
	c := &s.cal
	if c.size == 0 {
		return -1
	}
	n := c.mask + 1
	for i := 0; i < n; i++ {
		day := c.curVB + int64(i)
		list := c.buckets[int(day)&c.mask]
		if len(list) == 0 {
			continue
		}
		head := list[0]
		// A head whose own day is the day being visited is the minimum:
		// its day is >= curVB (cursor invariant) and congruent to this
		// bucket, and only one such day fits in the current scan window.
		// Membership is decided by vbFor — the same arithmetic that
		// bucketed the event — never by a reconstructed day boundary,
		// which can disagree with vbFor by one day through floating-point
		// rounding and silently skip a pending event.
		if c.vbFor(s.pool[head].at) <= day {
			c.curVB = day
			return head
		}
	}
	// No event within one full calendar cycle of the cursor: the queue is
	// sparse relative to the bucket span (or holds far-future outliers).
	// Fall back to a direct search over bucket heads — each bucket is
	// sorted, so its head is its minimum — and jump the cursor.
	best := int32(-1)
	for _, list := range c.buckets {
		if len(list) == 0 {
			continue
		}
		if best < 0 || s.less(list[0], best) {
			best = list[0]
		}
	}
	c.curVB = c.vbFor(s.pool[best].at)
	return best
}

// calResize re-buckets every pending event into newN buckets with a width
// re-estimated from the current time distribution (Brown's adaptive
// rule: a small multiple of the typical inter-event gap, measured over
// the interquartile span to shrug off outliers).
func (s *Simulator) calResize(newN int) {
	c := &s.cal
	c.slots = c.slots[:0]
	for _, list := range c.buckets {
		c.slots = append(c.slots, list...)
	}
	c.times = c.times[:0]
	for _, slot := range c.slots {
		if at := s.pool[slot].at; at-at == 0 { // finite
			c.times = append(c.times, at)
		}
	}
	if w := estimateWidth(c.times); w > 0 {
		c.width = w
	}
	if len(c.buckets) == newN {
		for i := range c.buckets {
			c.buckets[i] = c.buckets[i][:0]
		}
	} else {
		c.buckets = make([][]int32, newN)
	}
	c.mask = newN - 1
	// Rebuild the cursor invariant from scratch: the new width changes
	// every day index, so recompute the minimum pending day directly.
	c.curVB = calMaxVB
	for _, slot := range c.slots {
		if vb := c.vbFor(s.pool[slot].at); vb < c.curVB {
			c.curVB = vb
		}
	}
	if c.size == 0 {
		c.curVB = 0
	}
	old := c.slots
	c.size = 0
	for _, slot := range old {
		s.calPushResized(slot)
	}
}

// calPushResized is calPush without the resize re-entry check, used while
// re-bucketing (size is rebuilt incrementally and must not trigger a
// nested resize).
func (s *Simulator) calPushResized(slot int32) {
	c := &s.cal
	ev := &s.pool[slot]
	b := int(c.vbFor(ev.at)) & c.mask
	list := c.buckets[b]
	i := len(list)
	for i > 0 && s.less(slot, list[i-1]) {
		i--
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = slot
	c.buckets[b] = list
	ev.bucket = int32(b)
	ev.index = int32(i)
	for j := i + 1; j < len(list); j++ {
		s.pool[list[j]].index = int32(j)
	}
	c.size++
}

// estimateWidth picks a bucket width from a sample of event times: three
// times the mean gap across the interquartile span, so a typical day
// holds a handful of events. Returns 0 (keep the old width) when the
// sample is too small or degenerate (all ties, no finite spread).
func estimateWidth(times []float64) Time {
	if len(times) < 2 {
		return 0
	}
	sort.Float64s(times)
	lo, hi := len(times)/4, len(times)-1-len(times)/4
	if hi <= lo {
		lo, hi = 0, len(times)-1
	}
	span := times[hi] - times[lo]
	if !(span > 0) {
		return 0
	}
	w := 3 * span / float64(hi-lo)
	if !(w > 0) || w != w {
		return 0
	}
	return w
}

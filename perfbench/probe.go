package main

import (
	"time"
)

// The benchmark runs on a shared host whose speed drifts by 30% to 3×
// within minutes as other tenants load the shared cores, caches and
// memory. The untraced run therefore adjusts its times by a host-speed
// probe: a fixed load, independent of the program, timed between the
// program's entry calls so that probe and program see the same host
// state. Each workload uses the probe whose time its own follows:
// README.md ("Host-speed adjustment") has the measurements.
const (
	// cacheProbeKeys and cacheProbeOps size the cache probe: that many
	// read-modify-writes at pseudo-random keys of a map of that many
	// keys (about 2 MB).
	cacheProbeKeys = 1 << 16
	cacheProbeOps  = 1 << 16
	// coreProbeSteps is the length of the core probe's register-only
	// chain.
	coreProbeSteps = 1 << 18
)

// hostProbe is one probe load, its nominal time and the times it took.
type hostProbe struct {
	load func()
	// nominal is about the load's fastest time on the 2-vCPU recorder,
	// so adjusted seconds read about as raw seconds do there.
	nominal float64
	times   []float64 // probe times since the last take
	spent   float64   // Σ every probe time
}

// newCacheProbe probes the shared caches and memory: map
// read-modify-writes at keys drawn by an xorshift generator whose state
// carries across probes, so every run draws the same keys.
func newCacheProbe() *hostProbe {
	m := make(map[uint64]uint64, cacheProbeKeys)
	for k := uint64(0); k < cacheProbeKeys; k++ {
		m[k] = k
	}
	x := uint64(88172645463325252)
	return &hostProbe{nominal: 4e-3, load: func() {
		for i := 0; i < cacheProbeOps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x%cacheProbeKeys]++
		}
	}}
}

// newCoreProbe probes the core alone: the register-only chain calibrate
// times.
func newCoreProbe() *hostProbe {
	x := uint64(88172645463325252)
	return &hostProbe{nominal: 1e-3, load: func() { x = xorshiftChain(x, coreProbeSteps) }}
}

// xorshiftChain runs n steps of a dependent xorshift-multiply chain from
// x; it stays in registers.
func xorshiftChain(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x2545f4914f6cdd1d
	}
	return x
}

// run times one probe, records it and returns it. A nil probe does
// nothing and returns 0.
func (h *hostProbe) run() float64 {
	if h == nil {
		return 0
	}
	t := time.Now()
	h.load()
	d := time.Since(t).Seconds()
	h.times = append(h.times, d)
	h.spent += d
	return d
}

// total is the time spent in probes so far (0 for a nil probe).
func (h *hostProbe) total() float64 {
	if h == nil {
		return 0
	}
	return h.spent
}

// take returns the median probe time since the last take (the median,
// so that a probe the scheduler interrupts does not count) and starts
// afresh. A nil probe returns 0.
func (h *hostProbe) take() float64 {
	if h == nil {
		return 0
	}
	med := median(h.times)
	h.times = h.times[:0]
	return med
}

// adjust scales raw host seconds by the nominal ÷ the probe time: the
// seconds the same work would take on a host where the probe takes its
// nominal time. Without a probe time it returns raw.
func (h *hostProbe) adjust(raw, probe float64) float64 {
	if h == nil || probe <= 0 {
		return raw
	}
	return raw * h.nominal / probe
}

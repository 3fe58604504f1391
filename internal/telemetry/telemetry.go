// Package telemetry is the always-on instrumentation spine of the live
// serving path: lock-free counters and gauges, log-bucketed mergeable
// latency histograms, a bounded structured journal of control-plane
// transitions, and a Prometheus text-format writer — stdlib only, cheap
// enough to leave on under production traffic.
//
// The ownership model mirrors the worker discipline of internal/pool:
// hot-path counters are owned by one writer goroutine (a lane worker, a
// shard) and read by any number of snapshotting goroutines through atomic
// loads, so instrumentation never adds a lock to the paths it measures.
// Control-plane structures (the Journal) take a mutex — they record
// rare transitions (query churn, splices, index rebuilds), not events.
package telemetry

import "sync/atomic"

// Counter is a monotonic event counter: one owner (or a few) adds, anyone
// loads. The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add records n occurrences.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc records one occurrence.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-value gauge (queue depth, live partials): Store wins,
// Load observes. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Store sets the gauge.
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Peak is a high-water-mark gauge: Observe keeps the maximum seen. Safe
// for concurrent observers. The zero value (peak 0) is ready to use.
type Peak struct{ v atomic.Int64 }

// Observe folds one sample into the peak.
func (p *Peak) Observe(n int64) {
	for {
		cur := p.v.Load()
		if n <= cur || p.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the peak observed so far.
func (p *Peak) Load() int64 { return p.v.Load() }

// Sampler decides, with one atomic add per call, whether the current
// operation should carry a (more expensive) measurement such as a wall
// timestamp. Every is the sampling period: 1 samples everything, 0 or
// negative samples nothing.
type Sampler struct {
	n     atomic.Int64
	every int64
}

// NewSampler returns a sampler firing every `every` calls.
func NewSampler(every int) *Sampler { return &Sampler{every: int64(every)} }

// Sample reports whether this call is a sampled one.
func (s *Sampler) Sample() bool {
	if s == nil || s.every <= 0 {
		return false
	}
	return s.n.Add(1)%s.every == 0
}

// LaneCounters instruments one worker lane of a session (or one shard):
// the owning worker increments, snapshotters load. The trailing pad keeps
// two lanes' counters off one cache line, so independent workers never
// false-share.
type LaneCounters struct {
	// Items counts queue items consumed (each a batch of events).
	Items Counter
	// Events counts events processed (batch items expanded).
	Events Counter
	// Matches counts matches emitted by the lane.
	Matches Counter
	// Stalls counts back-pressure stalls: sends that found the lane's
	// queue full and blocked (bumped by the sender, not the worker).
	Stalls Counter
	// Latency is the sampled detection-latency histogram
	// (submit → match emission, nanoseconds).
	Latency Histogram

	_ [64]byte // cache-line pad between adjacent lanes
}

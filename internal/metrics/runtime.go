// Package metrics holds the serving-side instrumentation primitives:
// lock-free counters, gauges and a latency histogram, sized for
// per-query updates on the engine's hot path. internal/engine sessions
// use them for their Stats() snapshots.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic level that can move both ways (queue depths,
// in-flight counts). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set forces the gauge to v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// latencyBuckets is the number of power-of-two duration buckets:
// bucket i counts observations in [2^i, 2^(i+1)) microseconds, with the
// first and last buckets absorbing the tails. 32 buckets span sub-µs to
// ~35 minutes, more than any query evaluation.
const latencyBuckets = 32

// Latency is a lock-free duration histogram with power-of-two buckets
// plus exact count/sum/min/max, cheap enough to observe every query of
// a saturated engine. The zero value is ready to use; all methods are
// safe for concurrent use.
type Latency struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; 0 means "unset" (guarded by count)
	max     atomic.Int64
	buckets [latencyBuckets]atomic.Uint64
}

// Observe records one duration.
func (l *Latency) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	l.count.Add(1)
	l.sum.Add(ns)
	for {
		cur := l.min.Load()
		if cur != 0 && cur <= ns {
			break
		}
		if l.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := l.max.Load()
		if cur >= ns {
			break
		}
		if l.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	l.buckets[bucketOf(d)].Add(1)
}

// bucketOf maps a duration to its power-of-two microsecond bucket.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= latencyBuckets {
		return latencyBuckets - 1
	}
	return b
}

// LatencySnapshot is a point-in-time summary of a Latency histogram.
// Quantiles are upper bounds from the bucket boundaries (within 2× of
// the true value by construction). The JSON form (used by the HTTP
// service's /v1/stats) carries durations as integer nanoseconds, Go's
// native time.Duration encoding.
type LatencySnapshot struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

// Snapshot summarizes the histogram. Concurrent Observe calls may be
// partially reflected; the snapshot is internally consistent enough for
// monitoring (quantiles are computed over whatever bucket counts were
// read).
func (l *Latency) Snapshot() LatencySnapshot {
	var s LatencySnapshot
	s.Count = l.count.Load()
	if s.Count == 0 {
		return s
	}
	s.Mean = time.Duration(l.sum.Load() / int64(s.Count))
	s.Min = time.Duration(l.min.Load())
	s.Max = time.Duration(l.max.Load())
	var counts [latencyBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = l.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return s
	}
	q := func(frac float64) time.Duration {
		target := uint64(frac * float64(total))
		if target == 0 {
			target = 1
		}
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= target {
				// Upper edge of bucket i: 2^(i+1) microseconds.
				return time.Duration(1<<uint(i+1)) * time.Microsecond
			}
		}
		return s.Max
	}
	s.P50, s.P95, s.P99, s.P999 = q(0.50), q(0.95), q(0.99), q(0.999)
	return s
}

// Package metrics is the instrumentation layer every participant reports
// through: counters, gauges, and bucketed histograms cheap enough for the
// superstep hot path. All primitives are lock-free atomics, observation
// never allocates, and every handle is nil-safe — an uninstrumented
// participant (no Registry in its Options) carries nil handles and pays
// one predictable branch per observation point. Registered metrics export
// two ways: the Prometheus text endpoint (http.go) and Registry.Sum, which
// tests and benchmarks use to read a family without a scrape. The
// autoscaler signals agents report travel separately, as report samples
// the coordinator's health model folds.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver (no-op), so
// uninstrumented hot paths cost one branch.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// atomicFloat accumulates a float64 sum with a CAS loop — the histogram
// sum must tolerate concurrent Observe calls from scrape-vs-event-loop
// races without a mutex.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram over non-negative values
// (durations in seconds, sizes in elements or bytes). Buckets are
// atomic-CAS-free counters: one Observe is a binary search over ~16
// bounds plus three atomic adds, with zero allocation — cheap enough to
// sit on per-phase and per-flush paths.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
}

// newHistogram builds a histogram with a private copy of bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Safe on a nil receiver (no-op) and for
// concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state,
// detached from the live atomics.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one extra
	// trailing entry for the +Inf overflow bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state. Safe on a nil receiver
// (returns a zero snapshot) and concurrently with Observe; the per-bucket
// loads are not mutually atomic, so a snapshot taken mid-burst may be off
// by in-flight observations — fine for scraping.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket, the standard Prometheus estimator. The
// first bucket interpolates from zero (values are non-negative by
// contract); ranks landing in the +Inf bucket clamp to the top bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge combines two snapshots of histograms with identical bounds —
// the aggregation used when summing one metric across participants.
// Merging is commutative and associative, so any fold order yields the
// same cluster-wide histogram.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(o.Bounds) == 0 {
		return s, nil
	}
	if len(s.Bounds) == 0 {
		return o, nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("metrics: merge: bound count %d != %d", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("metrics: merge: bound %d: %g != %g", i, s.Bounds[i], o.Bounds[i])
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// ExponentialBuckets returns n ascending upper bounds starting at start
// and growing by factor.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DurationBuckets spans 50µs to ~1.6s in powers of two — sized for phase
// durations, barrier waits, and REQ/REP round trips at laptop scale.
var DurationBuckets = ExponentialBuckets(50e-6, 2, 16)

// SizeBuckets spans 1 to ~1M in powers of four — sized for batch element
// counts and migration shipment sizes.
var SizeBuckets = ExponentialBuckets(1, 4, 11)

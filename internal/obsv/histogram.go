package obsv

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the histogram bounds used for pipeline latency
// stages, in microseconds. They are tuned to the paper's measured range:
// sub-millisecond transmission at low load, the 50 ms micro-batch window,
// the ~7-12 ms Spark processing cost, and multi-second tails under MAC
// saturation (Figure 6a/6b tops out near 3 s at 256 vehicles on MCS 3).
var DefaultLatencyBuckets = []int64{
	100, 250, 500, // sub-ms: in-process hops
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, // 1-50 ms: batch window, processing
	100_000, 250_000, 500_000, // 0.1-0.5 s: queueing under load
	1_000_000, 2_500_000, 5_000_000, // 1-5 s: saturation tails
}

// Histogram is a fixed-bucket histogram over int64 observations
// (conventionally microseconds for latency metrics). Every observation is
// two atomic adds plus a branch-free-ish bucket search over a small sorted
// bounds slice — no locks, no allocation. Safe for concurrent use.
type Histogram struct {
	// bounds are inclusive upper bucket bounds, strictly increasing.
	// buckets has len(bounds)+1 slots; the last is the overflow bucket.
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram creates a histogram with the given inclusive upper bounds
// (nil selects DefaultLatencyBuckets). Bounds must be sorted ascending;
// the constructor copies them.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Linear scan: the bucket count is small (≤ ~16) and the values are
	// heavily skewed toward the low buckets, so this beats binary search
	// in practice and keeps the code branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// HistogramSnapshot is a copy of a histogram's state. Counts[i] is the
// number of observations v with Bounds[i-1] < v <= Bounds[i]; the final
// slot is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the histogram state. Each bucket is read atomically; a
// concurrent Observe may land between reads, so Count can differ from the
// bucket sum by in-flight observations (never by more).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// restore overwrites the histogram with a snapshot taken from a histogram
// with identical bounds; mismatched bounds are ignored (a checkpoint from
// an older layout must not corrupt the live histogram).
func (h *Histogram) restore(s HistogramSnapshot) {
	if len(s.Bounds) != len(h.bounds) || len(s.Counts) != len(h.buckets) {
		return
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			return
		}
	}
	for i := range h.buckets {
		h.buckets[i].Store(s.Counts[i])
	}
	h.count.Store(s.Count)
	h.sum.Store(s.Sum)
}

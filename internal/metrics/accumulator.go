package metrics

import (
	"math"
	"sync"
	"time"
)

// Accumulator is a streaming one-pass summary over durations using
// Welford's online algorithm: mean and variance update in O(1) per sample
// with no retained slice, no per-call sort, and no catastrophic
// cancellation. The live observability path (obsv-traced latency
// breakdowns, the latency study's inner loop) feeds it per warning where
// Summarize would re-sort and re-sum the whole sample set on every call.
//
// Quantiles need the full sample (or a sketch); Accumulator deliberately
// reports none — the live quantile approximation is the obsv histogram's
// Quantile. Everything else in Summary (count, mean, std, min, max,
// stderr) matches Summarize exactly; see TestAccumulatorMatchesSummarize.
//
// Safe for concurrent use.
type Accumulator struct {
	mu    sync.Mutex
	n     int64
	mean  float64 // running mean, ns
	m2    float64 // sum of squared deviations from the running mean
	min   time.Duration
	max   time.Duration
	total float64 // running sum, ns (for exact-total reporting)
}

// Observe folds one duration into the summary.
func (a *Accumulator) Observe(d time.Duration) {
	f := float64(d)
	a.mu.Lock()
	a.n++
	if a.n == 1 || d < a.min {
		a.min = d
	}
	if d > a.max {
		a.max = d
	}
	delta := f - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (f - a.mean)
	a.total += f
	a.mu.Unlock()
}

// Count returns the number of observations.
func (a *Accumulator) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.n)
}

// Sum returns the running total.
func (a *Accumulator) Sum() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return time.Duration(a.total)
}

// Summary renders the streamed moments as a Summary. P50/P95 are zero:
// quantiles are not streamable without a sketch (use the obsv histogram's
// Quantile for live approximations).
func (a *Accumulator) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return Summary{}
	}
	// Summarize computes the population variance (sumSq/n - mean^2);
	// Welford's M2/n is the same quantity, computed stably.
	std := math.Sqrt(a.m2 / float64(a.n))
	return Summary{
		Count:  int(a.n),
		Mean:   time.Duration(a.mean),
		Std:    time.Duration(std),
		Min:    a.min,
		Max:    a.max,
		StdErr: time.Duration(std / math.Sqrt(float64(a.n))),
	}
}

// Merge folds another accumulator's summary into this one (Chan et al.'s
// pairwise variance combination — the parallel form of Welford's update).
// The result is as if every sample observed by other had been observed
// here. other is read under its own lock; merging an accumulator into
// itself is not supported.
func (a *Accumulator) Merge(other *Accumulator) {
	other.mu.Lock()
	n2, mean2, m22 := other.n, other.mean, other.m2
	min2, max2, total2 := other.min, other.max, other.total
	other.mu.Unlock()
	if n2 == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		a.n, a.mean, a.m2, a.min, a.max, a.total = n2, mean2, m22, min2, max2, total2
		return
	}
	n1, mean1, m21 := a.n, a.mean, a.m2
	n := n1 + n2
	delta := mean2 - mean1
	a.mean = mean1 + delta*float64(n2)/float64(n)
	a.m2 = m21 + m22 + delta*delta*float64(n1)*float64(n2)/float64(n)
	a.n = n
	a.total += total2
	if min2 < a.min {
		a.min = min2
	}
	if max2 > a.max {
		a.max = max2
	}
}

// Reset clears the accumulator.
func (a *Accumulator) Reset() {
	a.mu.Lock()
	a.n, a.mean, a.m2, a.min, a.max, a.total = 0, 0, 0, 0, 0, 0
	a.mu.Unlock()
}

// BreakdownAccumulator streams per-component latency summaries — the live
// counterpart of LatencyRecorder.Report, which re-summarises its whole
// retained sample slice on every call.
type BreakdownAccumulator struct {
	Tx, Queue, Processing, Dissemination, Total Accumulator
}

// NewBreakdownAccumulator returns an empty accumulator set.
func NewBreakdownAccumulator() *BreakdownAccumulator { return &BreakdownAccumulator{} }

// Observe folds one breakdown into every component stream.
func (b *BreakdownAccumulator) Observe(l LatencyBreakdown) {
	b.Tx.Observe(l.Tx)
	b.Queue.Observe(l.Queue)
	b.Processing.Observe(l.Processing)
	b.Dissemination.Observe(l.Dissemination)
	b.Total.Observe(l.Total())
}

// Count returns the number of observed breakdowns.
func (b *BreakdownAccumulator) Count() int { return b.Total.Count() }

// Merge folds another breakdown accumulator's streams into this one (the
// fleet-aggregation path: per-vehicle accumulators merge into one report).
func (b *BreakdownAccumulator) Merge(other *BreakdownAccumulator) {
	b.Tx.Merge(&other.Tx)
	b.Queue.Merge(&other.Queue)
	b.Processing.Merge(&other.Processing)
	b.Dissemination.Merge(&other.Dissemination)
	b.Total.Merge(&other.Total)
}

// Report renders the per-component summaries (quantiles zero; see
// Accumulator.Summary).
func (b *BreakdownAccumulator) Report() LatencyReport {
	return LatencyReport{
		Tx:            b.Tx.Summary(),
		Queue:         b.Queue.Summary(),
		Processing:    b.Processing.Summary(),
		Dissemination: b.Dissemination.Summary(),
		Total:         b.Total.Summary(),
	}
}

// Package metrics provides the instrumentation the paper's evaluation
// reports: end-to-end latency decomposed into transmission, queuing,
// processing, and dissemination components (Figure 6a/6b), and bandwidth
// accounting per vehicle and per RSU (Figure 6c/6d).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// LatencyBreakdown decomposes one warning's end-to-end latency — the time
// between a vehicle transmitting a status packet and the subsequent
// warning dissemination (the paper's definition in §I).
type LatencyBreakdown struct {
	// Tx is the network transmission delay (shaping + MAC + airtime).
	Tx time.Duration
	// Queue is the wait between broker arrival and the micro-batch that
	// processed the record.
	Queue time.Duration
	// Processing is the detection compute time within the batch.
	Processing time.Duration
	// Dissemination is the delay from warning production to the vehicle's
	// consumer pulling it.
	Dissemination time.Duration
}

// Total returns the end-to-end latency.
func (l LatencyBreakdown) Total() time.Duration {
	return l.Tx + l.Queue + l.Processing + l.Dissemination
}

// Summary describes a latency sample set.
type Summary struct {
	Count  int
	Mean   time.Duration
	Std    time.Duration
	Min    time.Duration
	Max    time.Duration
	P50    time.Duration
	P95    time.Duration
	StdErr time.Duration // standard error of the mean (the paper's bars)
}

// Summarize computes the summary of a duration sample.
func Summarize(durs []time.Duration) Summary {
	if len(durs) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum, sumSq float64
	for _, d := range sorted {
		f := float64(d)
		sum += f
		sumSq += f * f
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	return Summary{
		Count:  len(sorted),
		Mean:   time.Duration(mean),
		Std:    time.Duration(std),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantile(sorted, 0.50),
		P95:    quantile(sorted, 0.95),
		StdErr: time.Duration(std / math.Sqrt(n)),
	}
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return time.Duration(float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac)
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s ±%s p50=%s p95=%s max=%s",
		s.Count, s.Mean.Round(time.Microsecond), s.StdErr.Round(time.Microsecond),
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// LatencyRecorder accumulates latency breakdowns; safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []LatencyBreakdown
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record appends one breakdown.
func (r *LatencyRecorder) Record(l LatencyBreakdown) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, l)
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// LatencyReport summarises every component plus the total.
type LatencyReport struct {
	Tx, Queue, Processing, Dissemination, Total Summary
}

// Report summarises the recorded samples per component.
func (r *LatencyRecorder) Report() LatencyReport {
	r.mu.Lock()
	samples := make([]LatencyBreakdown, len(r.samples))
	copy(samples, r.samples)
	r.mu.Unlock()

	pick := func(f func(LatencyBreakdown) time.Duration) []time.Duration {
		out := make([]time.Duration, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	return LatencyReport{
		Tx:            Summarize(pick(func(l LatencyBreakdown) time.Duration { return l.Tx })),
		Queue:         Summarize(pick(func(l LatencyBreakdown) time.Duration { return l.Queue })),
		Processing:    Summarize(pick(func(l LatencyBreakdown) time.Duration { return l.Processing })),
		Dissemination: Summarize(pick(func(l LatencyBreakdown) time.Duration { return l.Dissemination })),
		Total:         Summarize(pick(LatencyBreakdown.Total)),
	}
}

// BandwidthMeter accumulates byte counts over a time window and converts
// them to rates. Safe for concurrent use.
type BandwidthMeter struct {
	mu    sync.Mutex
	bytes int64
	first time.Time
	last  time.Time
}

// NewBandwidthMeter returns an empty meter.
func NewBandwidthMeter() *BandwidthMeter { return &BandwidthMeter{} }

// Add records n bytes observed at the given instant.
func (m *BandwidthMeter) Add(n int, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytes += int64(n)
	if m.first.IsZero() || at.Before(m.first) {
		m.first = at
	}
	if at.After(m.last) {
		m.last = at
	}
}

// Bytes returns the cumulative byte count.
func (m *BandwidthMeter) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// RateBitsPerSec returns the average rate over the observed window; zero
// if fewer than two distinct instants were observed.
func (m *BandwidthMeter) RateBitsPerSec() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	window := m.last.Sub(m.first).Seconds()
	if window <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / window
}

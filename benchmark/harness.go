package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runParams sizes one run of one workload.
type runParams struct {
	Seed    int64
	Warmup  time.Duration // discarded
	Measure time.Duration // split into Segments equal parts
	// Segments is how many equal parts the measured span is cut into.
	Segments int
	Setups   int  // how often set-up is repeated; setup_s is the median
	Toy      bool // selftest size: small city, short probes
	Trace    bool // traced run: per-layer metrics instead of end-to-end
	// DropWarning makes the checker lose one received warning, so the
	// selftest can see failed become nonzero.
	DropWarning bool
}

// result is what one run of one workload yields.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Hard lists output-check violations; any entry makes the run
	// incorrect and the process exit nonzero.
	Hard    []string
	Metrics map[string]float64
	// SegmentRates are the per-segment rates behind records_per_s, kept in
	// the result file so that a noisy run can be told from a slow one.
	SegmentRates []float64
	// Samples states how many samples stand behind the latency
	// percentiles.
	Samples int
	// WallNsPerRecord is the untraced wall time per record of a traced
	// closed-loop run: what the layer budget has to add up to.
	WallNsPerRecord float64
	// tracers are the tracers of goroutines beside the main one.
	tracers []*tracer
	// Notes are printed under the metric table (budget rows and the like).
	Notes []string
}

func (r *result) hard(msg string) { r.Hard = append(r.Hard, msg) }

func (r *result) correct() bool { return r.Failed == 0 && len(r.Hard) == 0 }

// workload is one benchmark workload. setup may run several times (each
// builds a fresh system, closing the previous one) so that setup_s is a
// median; run measures the last one built.
type workload interface {
	setup(p runParams) error
	run(p runParams, tr *tracer) (*result, error)
	close()
}

func newWorkload(name string) workload {
	switch name {
	case "corridor-saturate":
		return &corridorWorkload{}
	case "corridor-remote-saturate":
		return &corridorWorkload{remote: true}
	case "corridor-paced-256":
		return &pacedWorkload{}
	case "replicated-failover":
		return &replicatedWorkload{}
	case "city-40k":
		return &cityWorkload{}
	}
	return nil
}

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// cpuNow is the process's total CPU time so far.
func cpuNow() time.Duration {
	u, s := cpuTime()
	return u + s
}

// segmenter cuts a run into equal wall-clock segments at the workload's
// own boundaries (a lap, a window, a step) and keeps per-segment rates.
// A segment closes at the first boundary at or past its end, and the
// next one starts there, so every unit of work lands in exactly one.
type segmenter struct {
	segLen time.Duration
	want   int

	segStart time.Time
	cpu0     time.Duration
	units0   int64

	perSec     []float64 // units per wall second
	cpuPerUnit []float64 // microseconds of CPU per unit
}

func newSegmenter(measure time.Duration, segments int, now time.Time, units int64) *segmenter {
	u, s := cpuTime()
	return &segmenter{
		segLen:   measure / time.Duration(segments),
		want:     segments,
		segStart: now,
		cpu0:     u + s,
		units0:   units,
	}
}

// mark is called at a boundary with the cumulative unit count; it
// reports whether every segment has closed.
func (s *segmenter) mark(now time.Time, units int64) bool {
	return s.close(now, units, s.segLen)
}

// finish closes the last segment of a run that ends by the clock and
// not at a boundary, if most of it has passed.
func (s *segmenter) finish(now time.Time, units int64) { s.close(now, units, s.segLen*3/4) }

func (s *segmenter) close(now time.Time, units int64, atLeast time.Duration) bool {
	if len(s.perSec) >= s.want {
		return true
	}
	el := now.Sub(s.segStart)
	if el < atLeast {
		return false
	}
	u, sy := cpuTime()
	cpu := u + sy
	n := units - s.units0
	if n > 0 {
		s.perSec = append(s.perSec, float64(n)/el.Seconds())
		s.cpuPerUnit = append(s.cpuPerUnit, float64(cpu-s.cpu0)/1e3/float64(n))
	} else {
		// An empty segment still counts: the system did nothing in it.
		s.perSec = append(s.perSec, 0)
	}
	s.segStart, s.cpu0, s.units0 = now, cpu, units
	return len(s.perSec) >= s.want
}

// The run's figure for a per-segment quantity is the decile on the
// undisturbed side: the upper one for a rate (of twenty segments, the
// third best), the lower one for a cost or a latency. On a shared host
// interference only ever slows a segment down, and it comes and goes in
// stretches of seconds to minutes (one binary read 100k-157k records/s
// over ten runs in one five-minute stretch and 205k-227k in the next).
// Over ten runs of corridor-remote-saturate the median of the segments
// spread by 11.5%, the upper quartile by 7.8%, the upper decile by 4.8%.
func upperDecile(xs []float64) float64 { return quantile(xs, 0.90) }
func lowerDecile(xs []float64) float64 { return quantile(xs, 0.10) }

func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// latencySegments keeps, segment by segment, the median and the 99th
// percentile of the latencies observed in it.
type latencySegments struct {
	p50, p99 []float64
	scratch  []float64
}

// close summarises the samples (milliseconds) of the segment that just
// ended; a segment without samples contributes nothing.
func (l *latencySegments) close(ms []float64) {
	if len(ms) == 0 {
		return
	}
	l.scratch = append(l.scratch[:0], ms...)
	sort.Float64s(l.scratch)
	l.p50 = append(l.p50, percentile(l.scratch, 0.50))
	l.p99 = append(l.p99, percentile(l.scratch, 0.99))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// procMeter samples the Go runtime around a measured span for the
// proc.* rows.
type procMeter struct {
	m0       runtime.MemStats
	u0, s0   time.Duration
	heapPeak uint64
}

func startProcMeter() *procMeter {
	p := &procMeter{}
	runtime.ReadMemStats(&p.m0)
	p.u0, p.s0 = cpuTime()
	p.heapPeak = p.m0.HeapInuse
	return p
}

// sample keeps the heap high-water mark; call it at segment boundaries,
// not per record (ReadMemStats stops the world).
func (p *procMeter) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > p.heapPeak {
		p.heapPeak = m.HeapInuse
	}
}

func (p *procMeter) fill(out map[string]float64, units int64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > p.heapPeak {
		p.heapPeak = m.HeapInuse
	}
	u, s := cpuTime()
	if units > 0 {
		out["proc.alloc_bytes_per_record"] = float64(m.TotalAlloc-p.m0.TotalAlloc) / float64(units)
		out["proc.allocs_per_record"] = float64(m.Mallocs-p.m0.Mallocs) / float64(units)
	}
	out["proc.gc_pause_ms"] = float64(m.PauseTotalNs-p.m0.PauseTotalNs) / 1e6
	out["proc.heap_peak_mb"] = float64(p.heapPeak) / (1 << 20)
	if cpu := (u - p.u0) + (s - p.s0); cpu > 0 {
		out["proc.sys_cpu_frac"] = float64(s-p.s0) / float64(cpu)
	}
}

package main

import (
	"time"

	"cad3/internal/microbatch"
)

// closedLoop drives a lock-step workload lap by lap: a warm-up that is
// discarded, then the measured span cut into equal segments. It owns
// what the closed-loop workloads share — segment rates, latency
// percentiles, the traced/untraced alternation — and leaves the lap
// itself to the workload.
type closedLoop struct {
	chk *checker
	// lap replays the corpus once, advancing the window counter, and
	// returns how many records it sent.
	lap func(lap int32, win *int32, tr *tracer) int
	// prefix is how many laps run before anything else (at least one);
	// exact then reads the counts that must repeat exactly for a seed —
	// a fixed input gives fixed counts, whatever the host's speed.
	prefix int
	exact  func(m map[string]float64)

	sentTotal     int64 // every record sent, warm-up included
	measured      int64 // records sent in the measured span
	tracedRecords int64 // records sent in traced laps
}

func (l *closedLoop) run(name string, p runParams, tr *tracer) *result {
	res := &result{Workload: name, Metrics: map[string]float64{}}
	var win, lap int32

	for ; lap == 0 || int(lap) < l.prefix; lap++ {
		l.sentTotal += int64(l.lap(lap, &win, nil))
	}
	exact := map[string]float64{}
	l.exact(exact)

	for deadline := time.Now().Add(p.Warmup); time.Now().Before(deadline); lap++ {
		l.sentTotal += int64(l.lap(lap, &win, nil))
	}
	l.chk.reset()
	l.chk.drop = p.DropWarning

	var pm *procMeter
	if p.Trace {
		pm = startProcMeter()
	}
	var tracedNs, plainNs []float64 // wall ns per record, per lap
	seg := newSegmenter(p.Measure, p.Segments, time.Now(), 0)
	var lats latencySegments
	latFrom := 0
	for {
		traced := p.Trace && lap%2 == 1
		if tr != nil {
			tr.on = traced
		}
		t0 := time.Now()
		n := l.lap(lap, &win, tr)
		now := time.Now()
		if p.Trace && n > 0 {
			per := float64(now.Sub(t0)) / float64(n)
			if traced {
				tracedNs = append(tracedNs, per)
				l.tracedRecords += int64(n)
			} else {
				plainNs = append(plainNs, per)
			}
		}
		l.sentTotal += int64(n)
		l.measured += int64(n)
		lap++
		closed := len(seg.perSec)
		done := seg.mark(now, l.measured)
		if len(seg.perSec) > closed {
			lats.close(l.chk.latMs[latFrom:])
			latFrom = len(l.chk.latMs)
			if pm != nil {
				pm.sample()
			}
		}
		if done {
			break
		}
	}
	if tr != nil {
		tr.on = false
	}

	res.Attempted = l.measured + l.chk.received + l.chk.missing
	res.Failed = l.chk.failures()
	res.Samples = len(l.chk.latMs)
	res.SegmentRates = seg.perSec
	m := res.Metrics
	if !p.Trace {
		rate := upperDecile(seg.perSec)
		m["records_per_s"] = rate
		m["cpu_us_per_record"] = lowerDecile(seg.cpuPerUnit)
		m["warn_latency_p50_ms"] = lowerDecile(lats.p50)
		m["warn_latency_p99_ms"] = lowerDecile(lats.p99)
		m["realtime_factor"] = rate / virtualSecondRecords
		return res
	}
	for k, v := range exact {
		m[k] = v
	}
	m["vehicle.warn_latency_p999_ms"] = quantile(l.chk.latMs, 0.999)
	if a, b := median(tracedNs), median(plainNs); b > 0 {
		m["trace.overhead_frac"] = a/b - 1
		res.WallNsPerRecord = b
	}
	pm.fill(m, l.measured)
	return res
}

// stepStats collects what Node.Step reports about its batches during a
// traced run.
type stepStats struct {
	sizes   []float64
	procNs  int64
	records int64
}

func (s *stepStats) note(bs microbatch.BatchStats) {
	s.sizes = append(s.sizes, float64(bs.Records))
	s.procNs += int64(bs.ProcessingTime)
	s.records += int64(bs.Records)
}

func (s *stepStats) fill(m map[string]float64) {
	m["rsu.batch_records_p50"] = median(s.sizes)
	if s.records > 0 {
		m["rsu.step_proc_ns"] = float64(s.procNs) / float64(s.records)
	}
}

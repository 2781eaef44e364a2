package obsv

import (
	"sync"
	"testing"
	"time"
)

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	c.Add(-5) // ignored: monotonic
	c.Add(0)  // ignored
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter did not return the same handle")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 1} // (..10] (10..100] (100..1000] overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 || s.Sum != 5+10+11+100+500+5000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if m := s.Mean(); m < 900 || m > 940 {
		t.Fatalf("mean = %f", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	for v := int64(1); v <= 40; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 15 || q > 25 {
		t.Fatalf("p50 = %d, want ~20", q)
	}
	if q := s.Quantile(0.95); q < 30 || q > 40 {
		t.Fatalf("p95 = %d, want ~38", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while a
// reader snapshots continuously — run under -race this proves the
// histogram is data-race free and that snapshots never over-count.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]int64{100, 1000, 10000})
	const writers = 8
	const perWriter = 5000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var bucketSum int64
			for _, c := range s.Counts {
				bucketSum += c
			}
			// Each bucket slot is bumped before Count, so a snapshot's
			// bucket sum can run ahead of its Count by in-flight
			// observations but never lag behind it.
			if bucketSum < s.Count {
				t.Errorf("snapshot bucket sum %d below count %d", bucketSum, s.Count)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(seed * int64(i%77))
			}
		}(int64(w + 1))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let writers finish, then stop the reader.
	for h.Count() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("settled bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestRegistrySnapshotResetRestore(t *testing.T) {
	r := NewRegistry()
	r.Counter("warnings").Add(7)
	r.Gauge("cars").Set(12)
	r.Histogram("lat", []int64{10, 100}).Observe(42)
	r.RegisterGaugeFunc("live", func() int64 { return 99 })

	s := r.Snapshot()
	if s.Counters["warnings"] != 7 || s.Gauges["cars"] != 12 || s.Gauges["live"] != 99 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Fatalf("hist snapshot %+v", s.Histograms["lat"])
	}

	// Restore into a fresh registry — the checkpoint-recovery path.
	r2 := NewRegistry()
	r2.Restore(s)
	if r2.Counter("warnings").Value() != 7 {
		t.Fatal("restore lost counter")
	}
	if r2.Histogram("lat", []int64{10, 100}).Count() != 1 {
		t.Fatal("restore lost histogram")
	}

	r.Reset()
	s = r.Snapshot()
	if s.Counters["warnings"] != 0 || s.Gauges["cars"] != 0 || s.Histograms["lat"].Count != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
	if s.Gauges["live"] != 99 {
		t.Fatal("reset must not clear gauge funcs")
	}
}

func TestRegistryConcurrentLookup(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h", nil).Observe(int64(j))
				r.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := int64(1); i <= 5; i++ {
		r.Push(TraceEntry{Car: i})
	}
	got := r.Recent(0)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first: 5, 4, 3.
	for i, want := range []int64{5, 4, 3} {
		if got[i].Car != want {
			t.Fatalf("recent[%d].Car = %d, want %d", i, got[i].Car, want)
		}
	}
	if got := r.Recent(1); len(got) != 1 || got[0].Car != 5 {
		t.Fatalf("recent(1) = %+v", got)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation, zero when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the containing bucket; the overflow bucket reports its lower
// bound. The exposition publishes buckets, not quantiles, so this reader
// lives with the tests that hold the bucket counts to it.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + int64(frac*float64(s.Bounds[i]-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}

package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeKnownValues(t *testing.T) {
	durs := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
	}
	s := Summarize(durs)
	if s.Count != 5 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 30*time.Millisecond {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Min != 10*time.Millisecond || s.Max != 50*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 30*time.Millisecond {
		t.Errorf("P50 = %v", s.P50)
	}
	wantStd := time.Duration(math.Sqrt(200) * float64(time.Millisecond))
	if diff := s.Std - wantStd; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("Std = %v, want ~%v", s.Std, wantStd)
	}
	if s.StdErr >= s.Std {
		t.Errorf("StdErr %v should be below Std %v for n>1", s.StdErr, s.Std)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeInvariantsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		durs := make([]time.Duration, len(raw))
		for i, v := range raw {
			durs[i] = time.Duration(v)
		}
		s := Summarize(durs)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyBreakdownTotal(t *testing.T) {
	l := LatencyBreakdown{
		Tx:            3 * time.Millisecond,
		Queue:         20 * time.Millisecond,
		Processing:    9 * time.Millisecond,
		Dissemination: 15 * time.Millisecond,
	}
	if l.Total() != 47*time.Millisecond {
		t.Errorf("Total = %v", l.Total())
	}
}

func TestLatencyRecorderReport(t *testing.T) {
	r := NewLatencyRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Record(LatencyBreakdown{
				Tx:            time.Duration(i) * time.Millisecond,
				Processing:    5 * time.Millisecond,
				Dissemination: 10 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	rep := r.Report()
	if rep.Processing.Mean != 5*time.Millisecond {
		t.Errorf("Processing mean = %v", rep.Processing.Mean)
	}
	if rep.Total.Mean != rep.Tx.Mean+rep.Queue.Mean+rep.Processing.Mean+rep.Dissemination.Mean {
		t.Errorf("component means don't add up: %+v", rep)
	}
	if rep.Tx.Count != 10 {
		t.Errorf("Tx count = %d", rep.Tx.Count)
	}
}

func TestBandwidthMeter(t *testing.T) {
	m := NewBandwidthMeter()
	if m.RateBitsPerSec() != 0 {
		t.Error("empty meter rate should be 0")
	}
	start := time.Date(2016, 7, 1, 8, 0, 0, 0, time.UTC)
	// 250 bytes every 100 ms for 1 s => 2500 B over 1.0 s window = 20 kb/s.
	for i := 0; i <= 10; i++ {
		m.Add(250, start.Add(time.Duration(i)*100*time.Millisecond))
	}
	if m.Bytes() != 2750 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
	rate := m.RateBitsPerSec()
	if math.Abs(rate-22000) > 1 {
		t.Errorf("rate = %.1f b/s, want 22000", rate)
	}
}

func TestBandwidthMeterConcurrent(t *testing.T) {
	m := NewBandwidthMeter()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Add(100, start.Add(time.Duration(i)*time.Millisecond))
		}(i)
	}
	wg.Wait()
	if m.Bytes() != 2000 {
		t.Errorf("Bytes = %d, want 2000", m.Bytes())
	}
	if m.RateBitsPerSec() <= 0 {
		t.Error("rate should be positive")
	}
}

// BandwidthMeter accumulates byte counts over a time window and converts
// them to rates. Safe for concurrent use. Nothing outside the tests
// meters bandwidth this way; the type is kept here with the tests that
// pin its rate arithmetic.
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

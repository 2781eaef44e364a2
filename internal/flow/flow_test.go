package flow

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cad3/internal/obsv"
)

func TestGateAdmitUntilCapacityThenBackpressure(t *testing.T) {
	// Capacity 10 sheds telemetry from occupancy 9 on.
	g := NewGate(GateConfig{Capacity: 10})
	for i := 0; i < 9; i++ {
		if err := g.Admit(ClassTelemetry); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err := g.Admit(ClassTelemetry)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("full gate returned %v, want ErrBackpressure", err)
	}
	if got := g.Occupancy(); got != 9 {
		t.Fatalf("occupancy = %d, want 9", got)
	}
	g.Release(2)
	if err := g.Admit(ClassTelemetry); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if got := g.Occupancy(); got != 8 {
		t.Fatalf("occupancy after release+admit = %d, want 8", got)
	}
}

func TestGateRetryAfterHintScalesWithOverrun(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 2})
	// Warnings are admitted past capacity; drive occupancy to 3x.
	for i := 0; i < 6; i++ {
		if err := g.Admit(ClassWarning); err != nil {
			t.Fatalf("warning admit %d: %v", i, err)
		}
	}
	err := g.Admit(ClassTelemetry)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("telemetry at 3x occupancy: %v", err)
	}
	hint, ok := RetryAfter(err)
	if !ok {
		t.Fatal("backpressure error carries no retry-after hint")
	}
	if hint != 3*DefaultRetryHint {
		t.Fatalf("hint = %v at 3x overrun, want %v", hint, 3*DefaultRetryHint)
	}
	// The hint must survive wrapping.
	wrapped := fmt.Errorf("produce: %w", err)
	if _, ok := RetryAfter(wrapped); !ok {
		t.Fatal("hint lost through fmt.Errorf wrapping")
	}
	if _, ok := RetryAfter(errors.New("other")); ok {
		t.Fatal("non-backpressure error yielded a hint")
	}
}

func TestPriorityShedNeverRefusesWarningsOrSummaries(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 2})
	for i := 0; i < 100; i++ {
		if err := g.Admit(ClassWarning); err != nil {
			t.Fatalf("warning %d refused: %v", i, err)
		}
		if err := g.Admit(ClassSummary); err != nil {
			t.Fatalf("summary %d refused: %v", i, err)
		}
	}
	if err := g.Admit(ClassTelemetry); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("telemetry under pressure: %v, want ErrBackpressure", err)
	}
	s := g.Stats()
	if s.Shed[ClassWarning] != 0 || s.Shed[ClassSummary] != 0 {
		t.Fatalf("warning/summary sheds = %d/%d, want 0/0",
			s.Shed[ClassWarning], s.Shed[ClassSummary])
	}
	if s.Shed[ClassTelemetry] == 0 {
		t.Fatal("telemetry shed not counted")
	}
}

func TestPriorityShedReservesHeadroom(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 10})
	admitted := 0
	for i := 0; i < 20; i++ {
		if err := g.Admit(ClassTelemetry); err == nil {
			admitted++
		}
	}
	if admitted != 9 {
		t.Fatalf("telemetry admitted = %d, want 9 (90%% of 10)", admitted)
	}
	// The reserved tenth still takes warnings.
	if err := g.Admit(ClassWarning); err != nil {
		t.Fatalf("warning into reserved headroom: %v", err)
	}
}

func TestGateAdmitRefuseZeroAlloc(t *testing.T) {
	reg := obsv.NewRegistry()
	g := NewGate(GateConfig{Capacity: 1, Metrics: reg, Name: "flow.t"})
	if err := g.Admit(ClassTelemetry); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		err := g.Admit(ClassTelemetry) // always refused: occupancy pinned at 1 >= 0.9*1
		if err == nil {
			t.Fatal("expected refusal")
		}
		if _, ok := RetryAfter(err); !ok {
			t.Fatal("no hint")
		}
	})
	if allocs != 0 {
		t.Errorf("refuse path: %v allocs/op, want 0", allocs)
	}
	g.Release(1)
	allocs = testing.AllocsPerRun(200, func() {
		if err := g.Admit(ClassTelemetry); err != nil {
			t.Fatal(err)
		}
		g.Release(1)
	})
	if allocs != 0 {
		t.Errorf("admit+release path: %v allocs/op, want 0", allocs)
	}
}

func TestGateMetricsCounters(t *testing.T) {
	reg := obsv.NewRegistry()
	g := NewGate(GateConfig{Capacity: 3, Metrics: reg, Name: "flow.in"})
	_ = g.Admit(ClassTelemetry)
	_ = g.Admit(ClassTelemetry)
	_ = g.Admit(ClassTelemetry) // shed
	snap := reg.Snapshot()
	if got := snap.Counters["flow.in.admitted"]; got != 2 {
		t.Errorf("admitted counter = %d, want 2", got)
	}
	if got := snap.Counters["flow.in.shed.telemetry"]; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := snap.Gauges["flow.in.occupancy"]; got != 2 {
		t.Errorf("occupancy gauge = %d, want 2", got)
	}
}

// refDecide is the gate's admission rule as the pluggable PriorityShed
// policy decided it at its default shed fraction: warnings and summaries
// always in, telemetry and other traffic shed from max(0.9*capacity, 1).
// It reports whether the message is admitted.
func refDecide(c Class, occupancy, capacity int64) bool {
	if c == ClassWarning || c == ClassSummary {
		return true
	}
	threshold := int64(0.9 * float64(capacity))
	if threshold < 1 {
		threshold = 1
	}
	return occupancy < threshold
}

// TestGateMatchesReferenceRule drives the gate across capacities, every
// class and the occupancies around the shed threshold, and holds it to
// refDecide: it admits exactly when the reference does, counts each
// refusal once under the class, and hands back the same retry hint the
// error would have carried for that occupancy.
func TestGateMatchesReferenceRule(t *testing.T) {
	for _, capacity := range []int64{1, 2, 3, 10, 1024, 1 << 30} {
		thr := max(int64(0.9*float64(capacity)), 1)
		for c := Class(0); c < numClasses; c++ {
			for _, occ := range []int64{0, thr - 1, thr, thr + 1, 2 * capacity} {
				if occ < 0 {
					continue
				}
				g := NewGate(GateConfig{Capacity: int(capacity)})
				g.Acquire(occ)
				err := g.Admit(c)
				want := refDecide(c, occ, capacity)
				if (err == nil) != want {
					t.Errorf("cap=%d %v occ=%d: admitted=%v, reference says %v", capacity, c, occ, err == nil, want)
					continue
				}
				st := g.Stats()
				if want {
					if st.Admitted != 1 || st.ShedTotal() != 0 || st.Occupancy != occ+1 {
						t.Errorf("cap=%d %v occ=%d admitted: stats %+v", capacity, c, occ, st)
					}
					continue
				}
				if st.Admitted != 0 || st.Shed[c] != 1 || st.ShedTotal() != 1 || st.Occupancy != occ {
					t.Errorf("cap=%d %v occ=%d shed: stats %+v", capacity, c, occ, st)
				}
				mult := int64(1)
				if occ > capacity {
					mult = 1 + (occ-1)/capacity
				}
				if hint, ok := RetryAfter(err); !ok || hint != time.Duration(mult)*DefaultRetryHint {
					t.Errorf("cap=%d %v occ=%d: hint %v (ok=%v), want %v", capacity, c, occ, hint, ok, time.Duration(mult)*DefaultRetryHint)
				}
			}
		}
	}
}

func TestGateReleaseClampsAtZero(t *testing.T) {
	g := NewGate(GateConfig{Capacity: 4})
	g.Release(10)
	if got := g.Occupancy(); got != 0 {
		t.Fatalf("occupancy after over-release = %d, want 0", got)
	}
	if err := g.Admit(ClassTelemetry); err != nil {
		t.Fatalf("admit after over-release: %v", err)
	}
}

func TestBatchControllerAIMD(t *testing.T) {
	c := NewBatchController(BatchControllerConfig{
		Min: 10, Max: 100, Initial: 50,
		SLO: 50 * time.Millisecond, Grow: 10, Shrink: 0.5,
	})
	// Overrun shrinks multiplicatively.
	c.Observe(50, 80*time.Millisecond)
	if got := c.Size(); got != 25 {
		t.Fatalf("size after overrun = %d, want 25", got)
	}
	// Saturated + comfortable grows additively.
	c.Observe(25, 10*time.Millisecond)
	if got := c.Size(); got != 35 {
		t.Fatalf("size after saturated fast batch = %d, want 35", got)
	}
	// Unsaturated leaves the bound alone.
	c.Observe(3, time.Millisecond)
	if got := c.Size(); got != 35 {
		t.Fatalf("size after idle batch = %d, want 35", got)
	}
	// Near-SLO saturated batch (inside SLO but over 70%) holds steady.
	c.Observe(35, 45*time.Millisecond)
	if got := c.Size(); got != 35 {
		t.Fatalf("size after near-SLO batch = %d, want 35", got)
	}
}

func TestBatchControllerBounds(t *testing.T) {
	c := NewBatchController(BatchControllerConfig{Min: 16, Max: 32, Initial: 32, SLO: time.Millisecond})
	for i := 0; i < 10; i++ {
		c.Observe(32, time.Second) // massive overruns
	}
	if got := c.Size(); got != 16 {
		t.Fatalf("size floor = %d, want Min=16", got)
	}
	for i := 0; i < 100; i++ {
		c.Observe(c.Size(), 0)
	}
	if got := c.Size(); got != 32 {
		t.Fatalf("size ceiling = %d, want Max=32", got)
	}
}

func TestPacerDecimatesAndRecovers(t *testing.T) {
	p := NewPacer(PacerConfig{MaxDecimation: 8, RecoverAfter: 2})
	// Full rate: every tick sends.
	for i := 0; i < 5; i++ {
		if !p.Tick() {
			t.Fatalf("tick %d decimated at full rate", i)
		}
	}
	p.OnBackpressure()
	if got := p.Decimation(); got != 2 {
		t.Fatalf("decimation after 1 backpressure = %d, want 2", got)
	}
	p.OnBackpressure()
	p.OnBackpressure()
	if got := p.Decimation(); got != 8 {
		t.Fatalf("decimation after 3 backpressures = %d, want 8 (capped)", got)
	}
	p.OnBackpressure()
	if got := p.Decimation(); got != 8 {
		t.Fatalf("decimation exceeded cap: %d", got)
	}
	// At k=8, one in eight ticks sends.
	sent := 0
	for i := 0; i < 16; i++ {
		if p.Tick() {
			sent++
		}
	}
	if sent != 2 {
		t.Fatalf("sent %d of 16 ticks at k=8, want 2", sent)
	}
	if got := p.Decimated(); got != 14 {
		t.Fatalf("decimated = %d, want 14", got)
	}
	// Recovery: 2 accepted sends halve the factor.
	p.OnSuccess()
	p.OnSuccess()
	if got := p.Decimation(); got != 4 {
		t.Fatalf("decimation after recovery streak = %d, want 4", got)
	}
	// A backpressure mid-streak resets progress.
	p.OnSuccess()
	p.OnBackpressure()
	p.OnSuccess()
	p.OnSuccess()
	if got := p.Decimation(); got != 4 {
		t.Fatalf("decimation after reset+streak = %d, want 4 (8/2)", got)
	}
}

func TestPacerZeroAlloc(t *testing.T) {
	p := NewPacer(PacerConfig{})
	p.OnBackpressure()
	allocs := testing.AllocsPerRun(200, func() {
		p.Tick()
		p.OnSuccess()
		p.OnBackpressure()
	})
	if allocs != 0 {
		t.Errorf("pacer hot path: %v allocs/op, want 0", allocs)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassTelemetry: "telemetry", ClassWarning: "warning",
		ClassSummary: "summary", ClassOther: "other",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

// Decimation returns the current factor (1 = full rate).
func (p *Pacer) Decimation() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.k
}

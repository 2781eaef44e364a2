package flow

import (
	"testing"
	"time"

	"cad3/internal/obsv"
)

// breakerClock is a hand-cranked clock for deterministic cooldown tests.
type breakerClock struct{ t time.Time }

func (c *breakerClock) now() time.Time          { return c.t }
func (c *breakerClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration, reg *obsv.Registry) (*Breaker, *breakerClock) {
	clk := &breakerClock{t: time.Unix(0, 0)}
	return NewBreaker(BreakerConfig{
		FailThreshold: threshold,
		Cooldown:      cooldown,
		Metrics:       reg,
		Now:           clk.now,
	}), clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second, nil)
	for i := 0; i < 2; i++ {
		b.OnFailure()
		if !b.Allow() {
			t.Fatalf("breaker refused after %d failures (threshold 3)", i+1)
		}
	}
	if b.Failures() != 2 {
		t.Fatalf("Failures = %d, want 2", b.Failures())
	}
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after threshold, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second, nil)
	b.OnFailure()
	b.OnFailure()
	b.OnSuccess()
	b.OnFailure()
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second, nil)
	b.OnFailure()
	if b.Allow() {
		t.Fatal("open breaker admitted during cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Only one probe may be outstanding.
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after probe success, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second, nil)
	b.OnFailure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted")
	}
	b.OnFailure() // probe failed
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted before a fresh cooldown")
	}
	// The cooldown clock restarted at the failed probe.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after the second cooldown")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatal("breaker did not recover")
	}
}

func TestBreakerLateFailureKeepsCooldownClock(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second, nil)
	b.OnFailure()
	clk.advance(900 * time.Millisecond)
	// A straggling in-flight request fails after the trip: it must not
	// push the half-open horizon out.
	b.OnFailure()
	clk.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("late failure restarted the cooldown clock")
	}
}

func TestBreakerMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	b, clk := newTestBreaker(1, time.Second, reg)
	b.OnFailure()
	if v := reg.Counter("flow.breaker.trips").Value(); v != 1 {
		t.Fatalf("trips = %d, want 1", v)
	}
	if v := reg.Gauge("flow.breaker.open").Value(); v != 1 {
		t.Fatalf("open = %d, want 1", v)
	}
	clk.advance(time.Second)
	b.Allow()
	if v := reg.Counter("flow.breaker.probes").Value(); v != 1 {
		t.Fatalf("probes = %d, want 1", v)
	}
	b.OnSuccess()
	if v := reg.Gauge("flow.breaker.open").Value(); v != 0 {
		t.Fatalf("open = %d after recovery, want 0", v)
	}
	// A failed probe re-trips but must not double-count the open gauge.
	b.OnFailure()
	clk.advance(time.Second)
	b.Allow()
	b.OnFailure()
	clk.advance(time.Second)
	b.Allow()
	b.OnSuccess()
	if v := reg.Gauge("flow.breaker.open").Value(); v != 0 {
		t.Fatalf("open = %d after second recovery, want 0", v)
	}
}

func TestPacerFloor(t *testing.T) {
	p := NewPacer(PacerConfig{MaxDecimation: 16, RecoverAfter: 2})
	if p.Decimation() != 1 {
		t.Fatalf("fresh pacer decimation = %d, want 1", p.Decimation())
	}
	p.Floor()
	if p.Decimation() != 16 {
		t.Fatalf("Decimation = %d after Floor, want 16", p.Decimation())
	}
	// Floor is idempotent and recovery still works from the floor.
	p.Floor()
	if p.Decimation() != 16 {
		t.Fatal("Floor not idempotent")
	}
	for i := 0; i < 64; i++ {
		p.OnSuccess()
	}
	if p.Decimation() >= 16 {
		t.Fatalf("Decimation = %d after sustained success, want recovery", p.Decimation())
	}
}

// State returns the breaker's current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Failures returns the current consecutive-failure count.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}

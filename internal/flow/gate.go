package flow

import (
	"sync/atomic"
	"time"

	"cad3/internal/obsv"
)

// DefaultRetryHint is the base backoff a full gate suggests to refused
// producers. It is scaled up with overrun (see BackpressureError).
const DefaultRetryHint = 5 * time.Millisecond

// GateConfig configures a Gate.
type GateConfig struct {
	// Capacity is the queue bound the gate fronts (messages). Values <= 0
	// select 1024.
	Capacity int
	// Metrics, when set, receives the gate's counters under Name
	// (<name>.admitted, <name>.shed.<class>) and an occupancy gauge
	// (<name>.occupancy).
	Metrics *obsv.Registry
	// Name prefixes the gate's metric names. Empty selects "flow.gate".
	Name string
}

// Gate is a credit/occupancy admission gate in front of a bounded queue.
// Producers call Admit before enqueueing; the queue's drain side calls
// Release as messages leave (or are evicted), returning the credits.
//
// Warnings and summaries are always admitted — the bound is soft for them,
// so flow control never drops one — while telemetry and other traffic are
// shed once occupancy reaches nine tenths of capacity (at least one). The
// reserved headroom means a burst of warnings never finds the queue
// already filled by status updates.
//
// All methods are safe for concurrent use and allocation-free.
type Gate struct {
	capacity  int64
	shedAt    int64 // occupancy at which telemetry and other traffic are shed
	occupancy atomic.Int64
	err       *BackpressureError

	admitted atomic.Int64
	shed     [numClasses]atomic.Int64

	// Cached registry handles (nil when GateConfig.Metrics was nil).
	mAdmitted *obsv.Counter
	mShed     [numClasses]*obsv.Counter
}

// NewGate builds a gate.
func NewGate(cfg GateConfig) *Gate {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	g := &Gate{
		capacity: int64(cfg.Capacity),
		shedAt:   max(int64(0.9*float64(cfg.Capacity)), 1),
	}
	g.err = &BackpressureError{gate: g}
	if cfg.Metrics != nil {
		name := cfg.Name
		if name == "" {
			name = "flow.gate"
		}
		g.mAdmitted = cfg.Metrics.Counter(name + ".admitted")
		for c := Class(0); c < numClasses; c++ {
			g.mShed[c] = cfg.Metrics.Counter(name + ".shed." + c.String())
		}
		cfg.Metrics.RegisterGaugeFunc(name+".occupancy", g.Occupancy)
	}
	return g
}

// Admit admits one message of the given class: it takes a credit
// (occupancy grows) and returns nil, or sheds the message and returns the
// gate's backpressure error (matching ErrBackpressure, with a retry-after
// hint). The refusal path performs no allocation.
func (g *Gate) Admit(c Class) error {
	if c == ClassWarning || c == ClassSummary || g.occupancy.Load() < g.shedAt {
		g.occupancy.Add(1)
		g.admitted.Add(1)
		if g.mAdmitted != nil {
			g.mAdmitted.Inc()
		}
		return nil
	}
	g.shed[c].Add(1)
	if g.mShed[c] != nil {
		g.mShed[c].Inc()
	}
	return g.err
}

// Acquire takes n credits unconditionally, bypassing admission — the
// restore/replay path that rebuilds a queue's occupancy from a snapshot
// without re-running admission decisions that already happened.
func (g *Gate) Acquire(n int64) {
	if n > 0 {
		g.occupancy.Add(n)
	}
}

// Release returns n credits as the queue drains. Occupancy never goes
// below zero (restores and replays may release more than was admitted
// through this gate instance).
func (g *Gate) Release(n int64) {
	if n <= 0 {
		return
	}
	if g.occupancy.Add(-n) < 0 {
		// Clamp: a concurrent racer may briefly observe a small negative
		// value; settle it back toward zero without losing admits.
		for {
			v := g.occupancy.Load()
			if v >= 0 || g.occupancy.CompareAndSwap(v, 0) {
				return
			}
		}
	}
}

// Occupancy returns the current credit debt (enqueued but undrained
// messages).
func (g *Gate) Occupancy() int64 { return g.occupancy.Load() }

// Capacity returns the configured bound.
func (g *Gate) Capacity() int64 { return g.capacity }

// Err returns the gate's preallocated backpressure error (for tests and
// for wiring layers that surface it without calling Admit).
func (g *Gate) Err() *BackpressureError { return g.err }

// Stats is a point-in-time copy of the gate's counters.
type Stats struct {
	Admitted  int64
	Shed      [4]int64 // indexed by Class
	Occupancy int64
	Capacity  int64
}

// ShedTotal sums sheds across classes.
func (s Stats) ShedTotal() int64 {
	var total int64
	for _, v := range s.Shed {
		total += v
	}
	return total
}

// Stats snapshots the gate.
func (g *Gate) Stats() Stats {
	s := Stats{
		Admitted:  g.admitted.Load(),
		Occupancy: g.occupancy.Load(),
		Capacity:  g.capacity,
	}
	for c := Class(0); c < numClasses; c++ {
		s.Shed[c] = g.shed[c].Load()
	}
	return s
}

// retryHint scales the base hint by the gate's overrun: at exactly full it
// suggests one base interval, at 2x occupancy two, and so on.
func (g *Gate) retryHint() time.Duration {
	occ := g.occupancy.Load()
	mult := int64(1)
	if g.capacity > 0 && occ > g.capacity {
		mult = 1 + (occ-g.capacity+g.capacity-1)/g.capacity
	}
	return time.Duration(mult) * DefaultRetryHint
}

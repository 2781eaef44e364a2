package netem

import (
	"errors"
	"math"
	"time"
)

// Simulator is a minimal discrete-event simulator: a virtual clock and an
// event queue. The latency experiments run the whole CAD3 pipeline —
// vehicle transmissions, MAC contention, micro-batch boundaries,
// processing, consumer polling — on this clock, making the Figure 6
// benches deterministic and wall-clock-independent.
//
// Events fire in (instant, insertion order) order. The queue is a 4-ary
// min-heap of values keyed on (nanoseconds since start, sequence number):
// two integer compares per step, no interface dispatch, no boxing, and
// with a prebuilt func() neither After nor Step allocates once the
// backing array has grown to the run's working set (DESIGN.md §15).
type Simulator struct {
	start time.Time
	now   int64 // virtual nanoseconds since start
	queue []event
	seq   int64
}

// ErrSimEmpty is returned by Step when no events remain.
var ErrSimEmpty = errors.New("netem: simulator has no pending events")

type event struct {
	at  int64 // virtual nanoseconds since Simulator.start
	seq int64 // FIFO tiebreak for simultaneous events
	fn  func()
}

// before is the queue's total order: earlier instant first, insertion
// order within an instant.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// heapArity is the fan-out of the event heap. Four children per node
// halve the depth of a binary heap (9 levels at 100k pending events) and
// keep a node's children on one or two cache lines.
const heapArity = 4

// NewSimulator starts a simulator at the given virtual instant.
func NewSimulator(start time.Time) *Simulator {
	return &Simulator{start: start}
}

// Now returns the current virtual time. It has the signature of time.Now
// so components accept it as an injected clock.
func (s *Simulator) Now() time.Time { return s.start.Add(time.Duration(s.now)) }

// offset converts an absolute instant to nanoseconds since start.
// time.Time.Sub saturates, so an instant more than ~292 years away lands
// on the far-future (or far-past) end of the axis instead of wrapping.
func (s *Simulator) offset(t time.Time) int64 { return int64(t.Sub(s.start)) }

// At schedules fn at an absolute virtual time. Scheduling in the past
// fires at the current instant, after the events already queued for it.
func (s *Simulator) At(t time.Time, fn func()) {
	at := s.offset(t)
	if at < s.now {
		at = s.now
	}
	s.push(at, fn)
}

// After schedules fn after a virtual delay. A delay that would carry the
// clock past the end of the int64 nanosecond axis saturates there.
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	at := s.now + int64(d)
	if at < s.now {
		at = math.MaxInt64
	}
	s.push(at, fn)
}

// push inserts an event, sifting the hole up from the new leaf.
//
//cad3:noalloc
func (s *Simulator) push(at int64, fn func()) {
	s.seq++
	e := event{at: at, seq: s.seq, fn: fn}
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes and returns the earliest event. The last leaf refills the
// root and sifts down; the vacated slot is zeroed so a fired event's
// closure is not kept reachable from the backing array.
//
//cad3:noalloc
func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{}
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&e) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = e
	return top
}

// Step pops and runs the next event, advancing the clock.
func (s *Simulator) Step() error {
	if len(s.queue) == 0 {
		return ErrSimEmpty
	}
	e := s.pop()
	s.now = e.at
	e.fn()
	return nil
}

// RunUntil processes events until the queue is empty or the clock would
// pass the deadline; events scheduled after the deadline stay queued. It
// returns the number of events processed.
func (s *Simulator) RunUntil(deadline time.Time) int {
	until := s.offset(deadline)
	var n int
	for len(s.queue) > 0 && s.queue[0].at <= until {
		_ = s.Step()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// Run processes all pending events (including those newly scheduled by
// event handlers), returning the count. Use with care: a self-rescheduling
// event makes this loop forever — prefer RunUntil in that case.
func (s *Simulator) Run() int {
	var n int
	for len(s.queue) > 0 {
		_ = s.Step()
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

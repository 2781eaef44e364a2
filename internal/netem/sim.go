package netem

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Simulator is a minimal discrete-event simulator: a virtual clock and an
// event queue. The latency experiments run the whole CAD3 pipeline —
// vehicle transmissions, MAC contention, micro-batch boundaries,
// processing, consumer polling — on this clock, making the Figure 6
// benches deterministic and wall-clock-independent.
//
// Events fire in (instant, insertion order) order. The queue is a
// calendar of three tiers keyed on (nanoseconds since start, sequence
// number), split by bucket — an instant's nanoseconds shifted right by
// bucketShift — against a cursor bucket that only moves forward:
//
//   - near, a 4-ary min-heap, holds every event whose bucket is at or
//     before the cursor, so its minimum is the earliest pending event;
//   - a ring of ringSize unsorted slots holds the next ringSize-1
//     buckets, one bucket a slot, appended to in O(1);
//   - far, another 4-ary min-heap, holds everything beyond the ring.
//
// When near runs dry the cursor moves to the next occupied slot, whose
// events become the near heap, and far events that the ring's window now
// reaches migrate into it; an empty ring jumps straight to far's minimum.
// A pop sifts through the few events of one bucket instead of the whole
// queue. An event holds a Handler; a func() scheduled through At or After
// is one too. With a prebuilt func() or a pointer Handler neither
// scheduling nor Step allocates once the backing arrays have grown to the
// run's working set (DESIGN.md §15).
type Simulator struct {
	start time.Time
	now   int64 // virtual nanoseconds since start
	seq   int64

	cursor int64 // every bucket at or before it is in near
	near   eventHeap
	ring   *calendar // allocated on the first event past the cursor's bucket
	inRing int
	far    eventHeap
	// spare is an empty array that a full slot moves into instead of
	// growing: the larger of near's old array and the last spare, kept
	// at each drain.
	spare []event
}

// ErrSimEmpty is returned by Step when no events remain.
var ErrSimEmpty = errors.New("netem: simulator has no pending events")

// Handler is what an event runs when it fires. A pointer to the state
// an event acts on can implement it, so the queue reaches that state
// with no closure in between.
type Handler interface{ Fire() }

// funcHandler makes a func() a Handler. A func value is one pointer, so
// converting it to a Handler allocates nothing.
type funcHandler func()

func (f funcHandler) Fire() { f() }

type event struct {
	at  int64 // virtual nanoseconds since Simulator.start
	seq int64 // FIFO tiebreak for simultaneous events
	h   Handler
}

// before is the queue's total order: earlier instant first, insertion
// order within an instant.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

const (
	// bucketShift sets the calendar's bucket width: 2^24 ns ≈ 16.8 ms,
	// a few dozen city events a bucket at 40,000 vehicles.
	bucketShift = 24
	// ringSize is the number of ring slots, ≈ 69 s of buckets: a
	// vehicle's next site crossing lands in the ring, its next telemetry
	// gap (minutes) mostly in far.
	ringSize = 4096
	ringMask = ringSize - 1
)

// bucketOf returns the calendar bucket of an instant.
func bucketOf(at int64) int64 { return at >> bucketShift }

// calendar is the ring tier: slot b&ringMask holds bucket b's events in
// insertion order, and occupied has a bit set for every non-empty slot.
type calendar struct {
	slots    [ringSize][]event
	occupied [ringSize / 64]uint64
}

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
//
//cad3:noalloc
func (s *Simulator) At(t time.Time, fn func()) {
	at := s.offset(t)
	if at < s.now {
		at = s.now
	}
	s.push(at, funcHandler(fn))
}

// After schedules fn after a virtual delay. A delay that would carry the
// clock past the end of the int64 nanosecond axis saturates there.
//
//cad3:noalloc
func (s *Simulator) After(d time.Duration, fn func()) {
	s.AfterHandler(d, funcHandler(fn))
}

// AfterHandler schedules h to fire after a virtual delay, as After
// schedules a func().
//
//cad3:noalloc
func (s *Simulator) AfterHandler(d time.Duration, h Handler) {
	if d < 0 {
		d = 0
	}
	at := s.now + int64(d)
	if at < s.now {
		at = math.MaxInt64
	}
	s.push(at, h)
}

// Grow makes room for n more events past the ring's window, so that
// many — a fleet's telemetry, minutes out — never regrow the far heap.
func (s *Simulator) Grow(n int) { s.far = slices.Grow(s.far, n) }

// push files an event in the tier its bucket belongs to. A bucket at or
// before the cursor goes to near even when it is later than Now(): a
// RunUntil that stopped short of the next event may already have drained
// that event's slot.
//
//cad3:noalloc
func (s *Simulator) push(at int64, h Handler) {
	s.seq++
	e := event{at: at, seq: s.seq, h: h}
	switch b := bucketOf(at); {
	case b <= s.cursor:
		s.near.push(e)
	case b-s.cursor < ringSize:
		s.toRing(b, e)
	default:
		s.far.push(e)
	}
}

// toRing appends an event to its bucket's slot. A full slot moves into
// the spare, when that is larger, instead of growing; its old array,
// cleared, becomes the spare.
//
//cad3:noalloc
func (s *Simulator) toRing(b int64, e event) {
	if s.ring == nil {
		s.ring = newCalendar()
	}
	i := b & ringMask
	q := s.ring.slots[i]
	if len(q) == cap(q) && cap(s.spare) > len(q) {
		s.spare = append(s.spare, q...)
		clear(q)
		q, s.spare = s.spare, q[:0]
	}
	s.ring.slots[i] = append(q, e)
	s.ring.occupied[i/64] |= 1 << (i % 64)
	s.inRing++
}

// slotPrealloc is each slot's first capacity, carved from one array
// when the ring is allocated: a fresh ring then does not grow all 4,096
// slots from nil, one doubling at a time, in its first lap.
const slotPrealloc = 8

// newCalendar allocates the ring. It is kept out of toRing so a
// simulator whose events all fall in the cursor's bucket — a short
// experiment — never pays for the ring.
func newCalendar() *calendar {
	c := new(calendar)
	chunk := make([]event, ringSize*slotPrealloc)
	for i := range c.slots {
		c.slots[i] = chunk[i*slotPrealloc : i*slotPrealloc : (i+1)*slotPrealloc]
	}
	return c
}

// advance refills an empty near heap from the next occupied ring slot,
// first moving the window to far's minimum when the ring is empty. It
// reports false when nothing is pending.
//
//cad3:noalloc
func (s *Simulator) advance() bool {
	if s.inRing == 0 {
		if len(s.far) == 0 {
			return false
		}
		// Place the window so far's minimum is its first bucket.
		s.cursor = bucketOf(s.far[0].at) - 1
		s.migrate()
	}
	b := s.nextOccupied()
	i := b & ringMask
	s.cursor = b
	// near is empty: it takes over the slot's backing array and the
	// slot's events are heapified in place. Near's old array and the
	// spare trade so that the larger stays spare for the next slot to
	// fill up; the drained slot, not used again for ringSize buckets,
	// gets the smaller.
	old := s.near[:0]
	if cap(old) > cap(s.spare) {
		old, s.spare = s.spare, old
	}
	s.near, s.ring.slots[i] = s.ring.slots[i], old
	s.ring.occupied[i/64] &^= 1 << (i % 64)
	s.inRing -= len(s.near)
	s.near.heapify()
	s.migrate()
	return true
}

// nextOccupied returns the first bucket after the cursor whose slot holds
// events. The ring must hold at least one. The scan starts at the slot
// after the cursor's and goes once round the ring; the cursor's own slot
// is always empty (its bucket was drained, and bucket cursor+ringSize is
// past the window), so coming back to the first word unmasked finds only
// the slots before the start, the latest buckets of the window.
func (s *Simulator) nextOccupied() int64 {
	first := (s.cursor + 1) & ringMask
	w := first / 64
	word := s.ring.occupied[w] &^ (1<<(first%64) - 1)
	for word == 0 {
		w = (w + 1) % (ringSize / 64)
		word = s.ring.occupied[w]
	}
	slot := w*64 + int64(bits.TrailingZeros64(word))
	return s.cursor + 1 + (slot-first)&ringMask
}

// migrate moves the far events that the ring's window (cursor,
// cursor+ringSize) now reaches into their slots.
//
//cad3:noalloc
func (s *Simulator) migrate() {
	for len(s.far) > 0 {
		b := bucketOf(s.far[0].at)
		if b-s.cursor >= ringSize {
			return
		}
		s.toRing(b, s.far.pop())
	}
}

// Step pops and runs the next event, advancing the clock.
func (s *Simulator) Step() error {
	if len(s.near) == 0 && !s.advance() {
		return ErrSimEmpty
	}
	e := s.near.pop()
	s.now = e.at
	e.h.Fire()
	return nil
}

// RunUntil processes events until the queue is empty or the clock would
// pass the deadline; events scheduled after the deadline stay queued. It
// returns the number of events processed.
func (s *Simulator) RunUntil(deadline time.Time) int {
	until := s.offset(deadline)
	var n int
	for (len(s.near) > 0 || s.advance()) && s.near[0].at <= until {
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
	for s.Step() == nil {
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.near) + s.inRing + len(s.far) }

// eventHeap is a 4-ary min-heap of events in before order. Four children
// per node halve the depth of a binary heap and keep a node's children on
// one or two cache lines.
type eventHeap []event

const heapArity = 4

// push inserts an event, sifting the hole up from the new leaf.
//
//cad3:noalloc
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
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
// handler is not kept reachable from the backing array.
//
//cad3:noalloc
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n > 0 {
		q.siftDown(0, e)
	}
	return top
}

// siftDown settles e into the hole at i.
//
//cad3:noalloc
func (h eventHeap) siftDown(i int, e event) {
	n := len(h)
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
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

// heapify orders an unsorted slice into a heap, bottom-up.
//
//cad3:noalloc
func (h eventHeap) heapify() {
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

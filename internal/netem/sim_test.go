package netem

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSimulatorOrdering(t *testing.T) {
	s := NewSimulator(t0)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run processed %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if got := s.Now(); !got.Equal(t0.Add(30 * time.Millisecond)) {
		t.Errorf("clock = %v", got)
	}
}

func TestSimulatorFIFOTiebreak(t *testing.T) {
	s := NewSimulator(t0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestSimulatorCascade(t *testing.T) {
	s := NewSimulator(t0)
	var fired int
	var chain func()
	chain = func() {
		fired++
		if fired < 10 {
			s.After(time.Millisecond, chain)
		}
	}
	s.After(0, chain)
	s.Run()
	if fired != 10 {
		t.Errorf("cascade fired %d times, want 10", fired)
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	s := NewSimulator(t0)
	var fired []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d * time.Millisecond
		s.After(d, func() { fired = append(fired, d) })
	}
	n := s.RunUntil(t0.Add(25 * time.Millisecond))
	if n != 2 || len(fired) != 2 {
		t.Errorf("RunUntil processed %d events, fired %v", n, fired)
	}
	if !s.Now().Equal(t0.Add(25 * time.Millisecond)) {
		t.Errorf("clock after RunUntil = %v", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestSimulatorPastScheduling(t *testing.T) {
	s := NewSimulator(t0)
	var at time.Time
	s.At(t0.Add(-time.Hour), func() { at = s.Now() })
	s.Run()
	if !at.Equal(t0) {
		t.Errorf("past event fired at %v, want clamped to %v", at, t0)
	}
	s.After(-5*time.Second, func() {})
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != ErrSimEmpty {
		t.Errorf("err = %v, want ErrSimEmpty", err)
	}

	// A past At joins the current instant behind what is already queued
	// for it, and never moves the clock back.
	s.RunUntil(t0.Add(time.Minute))
	now := s.Now()
	var order []string
	s.After(0, func() { order = append(order, "queued") })
	s.At(t0, func() { order = append(order, "past"); at = s.Now() })
	s.Run()
	if len(order) != 2 || order[0] != "queued" || order[1] != "past" {
		t.Errorf("order = %v, want the already-queued event first", order)
	}
	if !at.Equal(now) {
		t.Errorf("past event fired at %v, want %v", at, now)
	}
}

// TestSimulatorFarFuture: with integer keys a huge delay could wrap into
// the past. It must saturate at the far end of the axis instead: fire
// last, and never before an event that is merely near.
func TestSimulatorFarFuture(t *testing.T) {
	s := NewSimulator(t0)
	s.RunUntil(t0.Add(time.Hour)) // now > 0, so now+MaxInt64 overflows
	var order []string
	var nearAt, farAt time.Time
	s.After(time.Duration(math.MaxInt64), func() { order = append(order, "far-after"); farAt = s.Now() })
	s.At(t0.AddDate(1000, 0, 0), func() { order = append(order, "far-at") })
	s.After(time.Second, func() { order = append(order, "near"); nearAt = s.Now() })
	if n := s.RunUntil(t0.Add(2 * time.Hour)); n != 1 {
		t.Fatalf("RunUntil ran %d events, want only the near one", n)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want the two far-future events", s.Pending())
	}
	s.Run()
	want := []string{"near", "far-after", "far-at"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if !nearAt.Equal(t0.Add(time.Hour + time.Second)) {
		t.Errorf("near event fired at %v", nearAt)
	}
	if !farAt.After(nearAt) {
		t.Errorf("far-future event fired at %v, before the near one at %v", farAt, nearAt)
	}
	// At the end of the axis a further delay stays there.
	var again time.Time
	s.After(time.Hour, func() { again = s.Now() })
	s.Run()
	if again.Before(farAt) {
		t.Errorf("event scheduled from the end of the axis fired at %v, before %v", again, farAt)
	}
}

// TestSimulatorRingEdge pins the last bucket of the ring's window, which
// the random schedules reach only by chance: an event filed in far while
// it was one bucket beyond the window must migrate into the ring when the
// cursor moves one bucket, and a later push into that same bucket must go
// to the ring too. Either one left in far would be migrated only once the
// cursor reached its bucket, into the cursor's own drained slot, and fire
// a ring's turn late.
func TestSimulatorRingEdge(t *testing.T) {
	s := NewSimulator(t0)
	var order []string
	note := func(name string) func() { return func() { order = append(order, name) } }
	edge := t0.Add(ringSize * bucketWidth) // bucket ringSize: past the window
	s.At(edge, note("far"))
	s.At(edge.Add(bucketWidth), note("after"))
	s.After(bucketWidth, note("first")) // bucket 1
	if err := s.Step(); err != nil {    // the cursor moves to bucket 1
		t.Fatal(err)
	}
	s.At(edge, note("tie")) // the window's last bucket, behind "far"
	s.Run()
	want := []string{"first", "far", "tie", "after"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSimulatorReleasesFiredEvents: a popped or drained slot is zeroed,
// so a fired event's closure (and whatever it captured) is not kept
// reachable from any tier's backing arrays: near, the ring's slots, far.
func TestSimulatorReleasesFiredEvents(t *testing.T) {
	s := NewSimulator(t0)
	for i := 0; i < 300; i++ {
		big := make([]byte, 1<<10)
		var d time.Duration
		switch i % 3 {
		case 0: // the cursor's bucket: near
			d = time.Duration(i%7) * time.Millisecond
		case 1: // seconds out: the ring
			d = time.Duration(i%7) * time.Second
		default: // minutes out: far
			d = time.Duration(2+i%7) * time.Minute
		}
		s.After(d, func() { big[0]++ })
	}
	if s.ring == nil || s.inRing == 0 || len(s.far) == 0 {
		t.Fatalf("schedule missed a tier: ring %d, far %d", s.inRing, len(s.far))
	}
	s.RunUntil(t0.Add(3 * time.Minute)) // fires from all three tiers
	if n := vacatedClosures(s); n != 0 {
		t.Fatalf("%d vacated slots still hold their closures mid-run", n)
	}
	s.Run()
	if n := vacatedClosures(s); n != 0 {
		t.Fatalf("%d slots still hold a closure after Run", n)
	}
}

// vacatedClosures counts handlers left in the unused capacity of every
// backing array of the queue.
func vacatedClosures(s *Simulator) int {
	n := 0
	count := func(q []event) {
		for _, e := range q[len(q):cap(q)] {
			if e.h != nil {
				n++
			}
		}
	}
	count(s.near)
	count(s.far)
	count(s.spare)
	if s.ring != nil {
		for _, q := range s.ring.slots {
			count(q)
		}
	}
	return n
}

// scheduler is what the differential test drives: the Simulator and the
// reference below.
type scheduler interface {
	Now() time.Time
	At(time.Time, func())
	After(time.Duration, func())
	RunUntil(time.Time) int
	Run() int
	Pending() int
}

// refSim states the Simulator's contract the slow way: a list of
// time.Time entries kept in order by a stable sort after every insert, so
// entries at one instant stay in insertion order. Instants live on the
// Simulator's axis — nanoseconds since start, saturating at MaxInt64 —
// so an instant past its end fires at the end.
type refSim struct {
	start   time.Time
	now     time.Time
	pending []refEvent
}

func newRefSim() *refSim { return &refSim{start: t0, now: t0} }

type refEvent struct {
	at time.Time
	fn func()
}

func (r *refSim) Now() time.Time { return r.now }
func (r *refSim) Pending() int   { return len(r.pending) }

func (r *refSim) At(t time.Time, fn func()) {
	t = r.start.Add(t.Sub(r.start))
	if t.Before(r.now) {
		t = r.now
	}
	r.pending = append(r.pending, refEvent{t, fn})
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at.Before(r.pending[j].at) })
}

func (r *refSim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.At(r.now.Add(d), fn)
}

func (r *refSim) step() {
	e := r.pending[0]
	r.pending = r.pending[1:]
	r.now = e.at
	e.fn()
}

func (r *refSim) RunUntil(deadline time.Time) int {
	n := 0
	for ; len(r.pending) > 0 && !r.pending[0].at.After(deadline); n++ {
		r.step()
	}
	if r.now.Before(deadline) {
		r.now = deadline
	}
	return n
}

func (r *refSim) Run() int {
	n := 0
	for ; len(r.pending) > 0; n++ {
		r.step()
	}
	return n
}

// firing is one line of a schedule's transcript: which event ran (or,
// negative, how many a RunUntil ran) and what the clock read.
type firing struct {
	id      int
	at      time.Time
	pending int
}

// bucketWidth is one calendar bucket as a duration.
const bucketWidth = time.Duration(1) << bucketShift

// playSchedule drives s through a seeded random schedule — equal
// timestamps, past times, handlers that schedule more events, RunUntil
// deadlines between bursts — and returns what fired, in order. The
// delays reach every edge of the calendar: bucket-width multiples ±1 ns
// around the cursor and around the end of the ring, minutes out (far),
// the end of the axis, and an At into a bucket that a RunUntil's peek has
// already drained. Deadlines of minutes let the ring run empty and jump
// to far.
func playSchedule(s scheduler, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		me := id
		fn := func() {
			log = append(log, firing{me, s.Now(), s.Pending()})
			if depth < 3 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depth + 1)
				}
			}
		}
		switch rng.Intn(10) {
		case 0: // a handful of instants: many ties
			s.After(time.Duration(rng.Intn(5))*time.Millisecond, fn)
		case 1:
			s.After(-time.Second, fn)
		case 2: // absolute, up to 10 ms in the past
			s.At(s.Now().Add(time.Duration(rng.Intn(20)-10)*time.Millisecond), fn)
		case 3: // bucket edges, near the cursor and at the end of the ring
			mult := []int{1, 2, 3, ringSize - 2, ringSize - 1, ringSize, ringSize + 1}
			d := time.Duration(mult[rng.Intn(len(mult))])*bucketWidth + time.Duration(rng.Intn(3)-1)
			s.After(d, fn)
		case 4: // minutes out: far
			s.After(time.Duration(rng.Int63n(int64(10*time.Minute))), fn)
		case 5: // absolute, a few buckets ahead: after a RunUntil whose
			// peek drained a later bucket, this lands in a skipped one
			s.At(s.Now().Add(time.Duration(rng.Int63n(int64(8*bucketWidth)))), fn)
		case 6: // the end of the axis, or just before it
			if rng.Intn(4) == 0 {
				s.After(time.Duration(math.MaxInt64-rng.Int63n(3)), fn)
			} else {
				s.At(t0.AddDate(1000, 0, 0), fn)
			}
		default:
			s.After(time.Duration(rng.Int63n(int64(50*time.Millisecond))), fn)
		}
	}
	for i := 0; i < 200; i++ {
		schedule(0)
	}
	for round := 0; round < 24; round++ {
		var step time.Duration
		switch rng.Intn(3) {
		case 0:
			step = time.Duration(rng.Intn(8)) * time.Millisecond
		case 1: // a few buckets, ending mid-bucket
			step = time.Duration(rng.Int63n(int64(6 * bucketWidth)))
		default: // past the ring's window
			step = time.Duration(rng.Int63n(int64(3 * time.Minute)))
		}
		n := s.RunUntil(s.Now().Add(step))
		log = append(log, firing{-n, s.Now(), s.Pending()})
		for k := rng.Intn(30); k > 0; k-- {
			schedule(0)
		}
	}
	n := s.Run()
	return append(log, firing{-n, s.Now(), s.Pending()})
}

// TestSimulatorMatchesReference: over seeded random schedules the
// calendar fires exactly what a stable sort of (instant, insertion order)
// fires, at the same clock readings.
func TestSimulatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := playSchedule(NewSimulator(t0), seed)
		want := playSchedule(newRefSim(), seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].id != want[i].id || !got[i].at.Equal(want[i].at) || got[i].pending != want[i].pending {
				t.Fatalf("seed %d, firing %d: got %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// countHandler is a pointer Handler, the shape the city's vehicles use.
type countHandler struct{ fired int }

func (c *countHandler) Fire() { c.fired++ }

// TestSimulatorStepDoesNotAllocate: rescheduling a prebuilt func() or a
// pointer Handler on a queue that has reached its working size costs no
// allocation — what the city's recurring events rely on.
func TestSimulatorStepDoesNotAllocate(t *testing.T) {
	s := NewSimulator(t0)
	fn := func() {}
	h := &countHandler{}
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
		s.AfterHandler(time.Duration(i)*time.Microsecond, h)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(700*time.Microsecond, fn)
		_ = s.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocates %.1f times per event, want 0", allocs)
	}
	fired := h.fired
	allocs = testing.AllocsPerRun(1000, func() {
		s.AfterHandler(700*time.Microsecond, h)
		_ = s.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterHandler+Step allocates %.1f times per event, want 0", allocs)
	}
	if h.fired == fired {
		t.Fatal("no Handler event fired")
	}
}

func TestMediumSerializesTransmissions(t *testing.T) {
	m, err := NewMedium(MediumConfig{MCS: MCS3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two frames entering at the same instant: the second must wait for
	// the first to clear the channel.
	d1, err := m.Transmit("v1", ReportBytes, t0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.Transmit("v2", ReportBytes, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.After(d1) {
		t.Errorf("second frame delivered at %v, not after first %v", d2, d1)
	}
	gap := d2.Sub(d1)
	if gap < 360*time.Microsecond {
		t.Errorf("gap %v below one frame airtime", gap)
	}
	st := m.Stats()
	if st.Transmissions != 2 || st.PayloadBytes != 2*ReportBytes {
		t.Errorf("stats = %+v", st)
	}
	if st.WireBytes <= st.PayloadBytes {
		t.Error("wire bytes must include MAC overhead")
	}
	if m.MCS() != MCS3 {
		t.Errorf("MCS = %v", m.MCS())
	}
}

func TestMediumIdleChannelFast(t *testing.T) {
	m, err := NewMedium(MediumConfig{MCS: MCS8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// On an idle channel a report should deliver in well under 1 ms.
	d, err := m.Transmit("v1", ReportBytes, t0)
	if err != nil {
		t.Fatal(err)
	}
	if lat := d.Sub(t0); lat > time.Millisecond {
		t.Errorf("idle-channel latency %v, want < 1ms", lat)
	}
}

func TestMediumWithHTBShaping(t *testing.T) {
	h, err := NewHTB(DSRCBandwidthBps, t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass("v1", PerVehicleFloorBps, 0); err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(MediumConfig{MCS: MCS3, HTB: h, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit("v1", ReportBytes, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit("ghost", ReportBytes, t0); err == nil {
		t.Error("want unknown-class error through shaping")
	}
}

func TestMediumInvalidConfig(t *testing.T) {
	if _, err := NewMedium(MediumConfig{MCS: MCS(42)}); err == nil {
		t.Error("want invalid-MCS error")
	}
	m, err := NewMedium(MediumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.MCS() != MCS3 {
		t.Errorf("default MCS = %v, want MCS3", m.MCS())
	}
}

func TestMedium256VehiclesOneRound(t *testing.T) {
	// 256 vehicles each sending one 200 B report: the channel must drain
	// them in the same order of magnitude as Equation 5 predicts (~100 ms
	// at MCS3) and within a few reporting periods.
	m, err := NewMedium(MediumConfig{MCS: MCS3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Time
	for v := 0; v < 256; v++ {
		d, err := m.Transmit("v", ReportBytes, t0)
		if err != nil {
			t.Fatal(err)
		}
		last = d
	}
	total := last.Sub(t0)
	if total < 50*time.Millisecond || total > 250*time.Millisecond {
		t.Errorf("256-vehicle drain = %v, want ~100ms order", total)
	}
}

package geo

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestJourneyAdvancesAlongRoute(t *testing.T) {
	net := chainNetwork(t, 3) // 3 x 500 m
	j, err := NewJourney(net, []SegmentID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if j.Segment() != 1 || j.Done() {
		t.Fatalf("initial state: segment %d done %v", j.Segment(), j.Done())
	}
	if r := j.RemainingMeters(); math.Abs(r-1500) > 5 {
		t.Errorf("remaining = %.1f, want ~1500", r)
	}

	// 36 km/h = 10 m/s: 10 s per step = 100 m.
	var handovers []SegmentID
	steps := 0
	for !j.Done() {
		st, err := j.Advance(36, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.HandoverFrom != 0 {
			handovers = append(handovers, st.HandoverFrom)
		}
		steps++
		if steps > 100 {
			t.Fatal("journey never finished")
		}
	}
	if len(handovers) != 2 || handovers[0] != 1 || handovers[1] != 2 {
		t.Errorf("handovers = %v, want [1 2]", handovers)
	}
	// ~1500 m at 100 m/step -> 15 steps.
	if steps < 14 || steps > 16 {
		t.Errorf("steps = %d, want ~15", steps)
	}
	if _, err := j.Advance(36, time.Second); !errors.Is(err, ErrJourneyDone) {
		t.Errorf("err = %v, want ErrJourneyDone", err)
	}
	if r := j.RemainingMeters(); math.Abs(r) > 1 {
		t.Errorf("remaining after finish = %.2f", r)
	}
}

func TestJourneyBigStepCrossesMultipleSegments(t *testing.T) {
	net := chainNetwork(t, 3)
	j, err := NewJourney(net, []SegmentID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// 1200 m in one step: lands on segment 3.
	st, err := j.Advance(120, 36*time.Second) // 33.3 m/s * 36 s = 1200 m
	if err != nil {
		t.Fatal(err)
	}
	if st.Segment != 3 {
		t.Errorf("segment = %d, want 3", st.Segment)
	}
	if st.HandoverFrom != 1 {
		t.Errorf("handover from %d, want 1 (the pre-step segment)", st.HandoverFrom)
	}
	if math.Abs(st.AlongMeters-200) > 5 {
		t.Errorf("along = %.1f, want ~200", st.AlongMeters)
	}
	if !st.Position.Valid() {
		t.Error("invalid position")
	}
}

func TestJourneyValidation(t *testing.T) {
	net := chainNetwork(t, 3)
	if _, err := NewJourney(nil, []SegmentID{1}); err == nil {
		t.Error("want error for nil network")
	}
	if _, err := NewJourney(net, nil); err == nil {
		t.Error("want error for empty route")
	}
	if _, err := NewJourney(net, []SegmentID{99}); err == nil {
		t.Error("want error for unknown segment")
	}
	if _, err := NewJourney(net, []SegmentID{1, 3}); err == nil {
		t.Error("want error for disconnected route")
	}
	// Negative speed clamps to zero (no movement).
	j, _ := NewJourney(net, []SegmentID{1, 2})
	st, err := j.Advance(-10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.AlongMeters != 0 || st.Segment != 1 {
		t.Errorf("negative speed moved the vehicle: %+v", st)
	}
}

func TestJourneyEndClampsToRouteEnd(t *testing.T) {
	net := chainNetwork(t, 2)
	j, _ := NewJourney(net, []SegmentID{1, 2})
	st, err := j.Advance(1000, time.Hour) // far past the end
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Segment != 2 {
		t.Errorf("end state = %+v", st)
	}
	end := net.Segment(2).End()
	if d := DistanceMeters(st.Position, end); d > 5 {
		t.Errorf("final position %.1f m from route end", d)
	}
}

// RemainingMeters returns the distance left on the route.
func (j *Journey) RemainingMeters() float64 {
	var total float64
	for i := j.idx; i < len(j.route); i++ {
		total += j.net.Segment(j.route[i]).LengthMeters()
	}
	return total - j.along
}

// chainNetwork builds a linear chain of n 500 m segments: 1 -> 2 -> ... -> n.
func chainNetwork(t *testing.T, n int) *Network {
	t.Helper()
	net := NewNetwork(0)
	start := ShenzhenCenter
	for i := 1; i <= n; i++ {
		seg := line(t, SegmentID(i), Primary, start, 90, 500, 2)
		if err := net.AddSegment(seg); err != nil {
			t.Fatal(err)
		}
		start = seg.End()
	}
	for i := 1; i < n; i++ {
		if err := net.Connect(SegmentID(i), SegmentID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

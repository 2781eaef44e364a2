package geo

import (
	"math"
	"testing"
)

func TestNetworkAddAndLookup(t *testing.T) {
	net := NewNetwork(0)
	s1 := line(t, 1, Motorway, ShenzhenCenter, 90, 1000, 4)
	s2 := line(t, 2, MotorwayLink, s1.End(), 0, 300, 2)
	if err := net.AddSegment(s1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddSegment(s2); err != nil {
		t.Fatal(err)
	}
	if err := net.AddSegment(s1); err == nil {
		t.Error("want duplicate-id error")
	}
	if net.SegmentCount() != 2 {
		t.Errorf("SegmentCount = %d", net.SegmentCount())
	}
	if net.Segment(1) != s1 || net.Segment(99) != nil {
		t.Error("Segment lookup broken")
	}
	if got := net.SegmentsOfType(Motorway); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("SegmentsOfType(Motorway) = %v", got)
	}
	if got := net.TotalLengthMeters(Motorway); math.Abs(got-1000) > 5 {
		t.Errorf("TotalLengthMeters = %.1f", got)
	}
}

func TestNetworkConnect(t *testing.T) {
	net := NewNetwork(0)
	s1 := line(t, 1, Motorway, ShenzhenCenter, 90, 1000, 2)
	s2 := line(t, 2, MotorwayLink, s1.End(), 0, 300, 2)
	_ = net.AddSegment(s1)
	_ = net.AddSegment(s2)
	if err := net.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(1, 99); err == nil {
		t.Error("want error for unknown target")
	}
	if err := net.Connect(99, 1); err == nil {
		t.Error("want error for unknown source")
	}
	succ := net.Successors(1)
	if len(succ) != 1 || succ[0] != 2 {
		t.Errorf("Successors = %v", succ)
	}
	// Mutating the returned slice must not affect the network.
	succ[0] = 42
	if got := net.Successors(1); got[0] != 2 {
		t.Error("Successors must return a copy")
	}
}

func TestNetworkNearby(t *testing.T) {
	net := NewNetwork(0)
	s1 := line(t, 1, Motorway, ShenzhenCenter, 90, 1000, 4)
	far := Destination(ShenzhenCenter, 0, 5000)
	s2 := line(t, 2, Primary, far, 90, 1000, 4)
	_ = net.AddSegment(s1)
	_ = net.AddSegment(s2)

	near := Destination(s1.PointAt(0.5), 0, 30)
	got := net.Nearby(near, 100)
	if len(got) != 1 || got[0].SegmentID != 1 {
		t.Fatalf("Nearby = %+v, want only segment 1", got)
	}
	if math.Abs(got[0].DistanceMeters-30) > 3 {
		t.Errorf("distance = %.1f, want ~30", got[0].DistanceMeters)
	}

	if got := net.Nearby(near, 10_000); len(got) != 2 {
		t.Errorf("wide search found %d segments, want 2", len(got))
	}
	if got := net.Nearby(Destination(ShenzhenCenter, 180, 20_000), 100); len(got) != 0 {
		t.Errorf("remote search found %d segments, want 0", len(got))
	}
}

func TestNearbySortedByDistance(t *testing.T) {
	net := NewNetwork(0)
	base := ShenzhenCenter
	for i := 1; i <= 5; i++ {
		start := Destination(base, 0, float64(i)*100)
		_ = net.AddSegment(line(t, SegmentID(i), Primary, start, 90, 500, 2))
	}
	got := net.Nearby(base, 2000)
	for i := 1; i < len(got); i++ {
		if got[i].DistanceMeters < got[i-1].DistanceMeters {
			t.Fatalf("Nearby not sorted: %v", got)
		}
	}
	if len(got) != 5 {
		t.Errorf("found %d segments, want 5", len(got))
	}
}

// TestNearbyReachesAcrossLongitudeAtHighLatitude: at 60°N a degree of
// longitude is half a degree of latitude's length, so the search window
// must span twice the cells east and west. A segment 1,400 m due east of
// p is within 1,500 m of it.
func TestNearbyReachesAcrossLongitudeAtHighLatitude(t *testing.T) {
	p := Point{Lat: 60.0001, Lon: 10}
	east := Destination(p, 90, 1400)
	net := NewNetwork(0)
	if err := net.AddSegment(line(t, 1, Primary, east, 90, 200, 1)); err != nil {
		t.Fatal(err)
	}
	got := net.Nearby(p, 1500)
	if len(got) != 1 || got[0].SegmentID != 1 {
		t.Fatalf("Nearby = %+v, want segment 1 at ~1400 m", got)
	}
	if d := got[0].DistanceMeters; math.Abs(d-1400) > 1 {
		t.Errorf("distance %.1f m, want ~1400", d)
	}
	if near := net.nearest(nil, p, 1500, 1, nil); len(near) != 1 || near[0] != got[0] {
		t.Errorf("nearest = %+v, want %+v", near, got)
	}
}

// TestNearestBreaksDistanceTiesByID: two segments on the same polyline
// are equally far from every point; the smaller ID comes first whichever
// the scan meets first, in Nearby and in the k-nearest query.
func TestNearestBreaksDistanceTiesByID(t *testing.T) {
	start := Destination(ShenzhenCenter, 0, 300)
	net := NewNetwork(0)
	for _, id := range []SegmentID{9, 4} {
		if err := net.AddSegment(line(t, id, Primary, start, 90, 600, 3)); err != nil {
			t.Fatal(err)
		}
	}
	p := ShenzhenCenter
	all := net.Nearby(p, 1000)
	if len(all) != 2 || all[0].SegmentID != 4 || all[1].SegmentID != 9 || all[0].DistanceMeters != all[1].DistanceMeters {
		t.Fatalf("Nearby = %+v, want 4 then 9 at one distance", all)
	}
	if near := net.nearest(nil, p, 1000, 1, nil); len(near) != 1 || near[0].SegmentID != 4 {
		t.Fatalf("nearest(k=1) = %+v, want segment 4", near)
	}
	if near := net.nearest(nil, p, 1000, 1, []SegmentID{4}); len(near) != 1 || near[0].SegmentID != 9 {
		t.Fatalf("nearest(k=1, skip 4) = %+v, want segment 9", near)
	}
}

// TotalLengthMeters returns the summed length of all segments of type t.
func (n *Network) TotalLengthMeters(t RoadType) float64 {
	var total float64
	for _, s := range n.byType[t] {
		total += s.LengthMeters()
	}
	return total
}

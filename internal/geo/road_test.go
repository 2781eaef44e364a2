package geo

import (
	"math"
	"testing"
)

func line(t *testing.T, id SegmentID, rt RoadType, start Point, bearing, length float64, legs int) *Segment {
	t.Helper()
	pts := []Point{start}
	cur := start
	for i := 0; i < legs; i++ {
		cur = Destination(cur, bearing, length/float64(legs))
		pts = append(pts, cur)
	}
	s, err := NewSegment(id, rt, "test", pts)
	if err != nil {
		t.Fatalf("NewSegment: %v", err)
	}
	return s
}

func TestNewSegmentValidation(t *testing.T) {
	if _, err := NewSegment(1, Motorway, "x", []Point{{Lat: 22, Lon: 114}}); err == nil {
		t.Error("want error for single-point polyline")
	}
	if _, err := NewSegment(1, Motorway, "x", []Point{{Lat: 22, Lon: 114}, {Lat: 200, Lon: 114}}); err == nil {
		t.Error("want error for invalid coordinate")
	}
}

func TestSegmentLength(t *testing.T) {
	s := line(t, 1, Motorway, ShenzhenCenter, 90, 1000, 4)
	if math.Abs(s.LengthMeters()-1000) > 2 {
		t.Errorf("LengthMeters = %.2f, want ~1000", s.LengthMeters())
	}
}

func TestSegmentPointAt(t *testing.T) {
	s := line(t, 1, Motorway, ShenzhenCenter, 0, 2000, 8)
	tests := []struct {
		frac float64
		want float64 // distance from start
	}{
		{0, 0}, {0.25, 500}, {0.5, 1000}, {1, 2000}, {-1, 0}, {2, 2000},
	}
	for _, tt := range tests {
		p := s.PointAt(tt.frac)
		got := DistanceMeters(s.Start(), p)
		if math.Abs(got-tt.want) > 5 {
			t.Errorf("PointAt(%v): %.1f m from start, want %.1f", tt.frac, got, tt.want)
		}
	}
}

func TestSegmentProject(t *testing.T) {
	s := line(t, 1, Motorway, ShenzhenCenter, 90, 1000, 4) // due east
	// A point 50 m north of the midpoint should project onto the middle.
	mid := s.PointAt(0.5)
	off := Destination(mid, 0, 50)
	proj := s.Project(off)
	if math.Abs(proj.DistanceMeters-50) > 2 {
		t.Errorf("perpendicular distance = %.2f, want ~50", proj.DistanceMeters)
	}
	if math.Abs(proj.AlongMeters-500) > 10 {
		t.Errorf("along = %.2f, want ~500", proj.AlongMeters)
	}
	if proj.SegmentID != s.ID {
		t.Errorf("SegmentID = %d", proj.SegmentID)
	}
}

func TestSegmentProjectBeyondEnds(t *testing.T) {
	s := line(t, 1, Motorway, ShenzhenCenter, 90, 1000, 2)
	before := Destination(s.Start(), 270, 100) // 100 m before start
	proj := s.Project(before)
	if proj.AlongMeters > 1 {
		t.Errorf("point before start should project at along ~0, got %.2f", proj.AlongMeters)
	}
	after := Destination(s.End(), 90, 100)
	proj = s.Project(after)
	if math.Abs(proj.AlongMeters-1000) > 5 {
		t.Errorf("point after end should project at along ~length, got %.2f", proj.AlongMeters)
	}
}

func TestRoadTypeString(t *testing.T) {
	for _, rt := range AllRoadTypes() {
		if !rt.Valid() {
			t.Errorf("%v should be valid", rt)
		}
		parsed, err := ParseRoadType(rt.String())
		if err != nil {
			t.Fatalf("ParseRoadType(%q): %v", rt.String(), err)
		}
		if parsed != rt {
			t.Errorf("round trip %v -> %v", rt, parsed)
		}
	}
	if _, err := ParseRoadType("bogus"); err == nil {
		t.Error("want error for unknown road type")
	}
	if RoadType(0).Valid() {
		t.Error("zero road type should be invalid")
	}
}

func TestRoadTypeDefaults(t *testing.T) {
	if Motorway.SpeedLimitKmh() <= MotorwayLink.SpeedLimitKmh() {
		t.Error("motorway should be faster than motorway link")
	}
	for _, rt := range AllRoadTypes() {
		if rt.SpeedLimitKmh() <= 0 {
			t.Errorf("%v speed limit must be positive", rt)
		}
	}
}

package geo

import (
	"fmt"
	"math"
)

// RoadType classifies a road segment following the OpenStreetMap highway
// taxonomy used by the paper (Table V).
type RoadType int

// Road types, ordered as in Table V of the paper.
const (
	Motorway RoadType = iota + 1
	MotorwayLink
	Trunk
	TrunkLink
	Primary
	PrimaryLink
	Secondary
	SecondaryLink
	Tertiary
	Residential
)

// AllRoadTypes lists every road type in Table V order.
func AllRoadTypes() []RoadType {
	return []RoadType{
		Motorway, MotorwayLink, Trunk, TrunkLink, Primary,
		PrimaryLink, Secondary, SecondaryLink, Tertiary, Residential,
	}
}

var roadTypeNames = map[RoadType]string{
	Motorway:      "motorway",
	MotorwayLink:  "motorway_link",
	Trunk:         "trunk",
	TrunkLink:     "trunk_link",
	Primary:       "primary",
	PrimaryLink:   "primary_link",
	Secondary:     "secondary",
	SecondaryLink: "secondary_link",
	Tertiary:      "tertiary",
	Residential:   "residential",
}

// String implements fmt.Stringer.
func (t RoadType) String() string {
	if s, ok := roadTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("roadtype(%d)", int(t))
}

// ParseRoadType parses the OSM-style name of a road type.
func ParseRoadType(s string) (RoadType, error) {
	for t, name := range roadTypeNames {
		if name == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown road type %q", s)
}

// Valid reports whether t is a known road type.
func (t RoadType) Valid() bool {
	_, ok := roadTypeNames[t]
	return ok
}

// SpeedLimitKmh returns a representative speed limit for the road type,
// used by the synthetic trace generator as the center of the normal-driving
// speed distribution during free flow.
func (t RoadType) SpeedLimitKmh() float64 {
	switch t {
	case Motorway:
		return 100
	case MotorwayLink:
		return 40
	case Trunk:
		return 80
	case TrunkLink:
		return 40
	case Primary:
		return 60
	case PrimaryLink:
		return 35
	case Secondary:
		return 50
	case SecondaryLink:
		return 30
	case Tertiary:
		return 40
	case Residential:
		return 30
	default:
		return 50
	}
}

// Lanes returns a representative per-direction lane count for the type.
func (t RoadType) Lanes() int {
	switch t {
	case Motorway:
		return 4
	case Trunk:
		return 3
	case Primary:
		return 3
	case Secondary:
		return 2
	case Tertiary:
		return 2
	default:
		return 1
	}
}

// SegmentID identifies a road segment within a Network. It corresponds to
// the RdID column of the paper's Table II schema.
type SegmentID int64

// Segment is a directed road segment: a polyline of geographic points with
// a road type. Segments are the unit of context in CAD3 — each RSU covers
// one or more segments and learns that road's normal speed profile.
type Segment struct {
	ID       SegmentID
	Type     RoadType
	Name     string
	Polyline []Point // at least two points
	length   float64 // cached, meters
	// legs[i-1] is the length of the leg from Polyline[i-1] to
	// Polyline[i] in meters, cached so PointAt and Project walk the
	// polyline without a haversine per leg.
	legs []float64
	// lo and hi are the corners of the polyline's bounding box: the
	// minimum and maximum latitude and longitude.
	lo, hi Point
	// cosBox is the smallest cosine of a latitude in the box, which
	// farTest.beyond needs for every radius search that lists it.
	cosBox float64
}

// NewSegment builds a segment and caches its length. It returns an error if
// the polyline has fewer than two points or contains invalid coordinates.
func NewSegment(id SegmentID, t RoadType, name string, polyline []Point) (*Segment, error) {
	if len(polyline) < 2 {
		return nil, fmt.Errorf("segment %d: polyline needs >= 2 points, got %d", id, len(polyline))
	}
	for i, p := range polyline {
		if !p.Valid() {
			return nil, fmt.Errorf("segment %d: invalid point %d: %v", id, i, p)
		}
	}
	pts := make([]Point, len(polyline))
	copy(pts, polyline)
	s := &Segment{ID: id, Type: t, Name: name, Polyline: pts, lo: pts[0], hi: pts[0]}
	s.legs = make([]float64, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		s.legs[i-1] = DistanceMeters(pts[i-1], pts[i])
		s.length += s.legs[i-1]
		s.lo.Lat, s.hi.Lat = math.Min(s.lo.Lat, pts[i].Lat), math.Max(s.hi.Lat, pts[i].Lat)
		s.lo.Lon, s.hi.Lon = math.Min(s.lo.Lon, pts[i].Lon), math.Max(s.hi.Lon, pts[i].Lon)
	}
	s.cosBox = math.Min(math.Cos(s.lo.Lat*degToRad), math.Cos(s.hi.Lat*degToRad))
	return s, nil
}

// LengthMeters returns the polyline length of the segment in meters.
func (s *Segment) LengthMeters() float64 { return s.length }

// Start returns the first polyline point.
func (s *Segment) Start() Point { return s.Polyline[0] }

// End returns the last polyline point.
func (s *Segment) End() Point { return s.Polyline[len(s.Polyline)-1] }

// PointAt returns the point at the given fraction (0..1) of the segment's
// length, interpolated along the polyline. Fractions outside [0,1] are
// clamped.
func (s *Segment) PointAt(frac float64) Point {
	if frac <= 0 {
		return s.Start()
	}
	if frac >= 1 {
		return s.End()
	}
	target := frac * s.length
	var walked float64
	for i := 1; i < len(s.Polyline); i++ {
		a, b := s.Polyline[i-1], s.Polyline[i]
		leg := s.legs[i-1]
		if walked+leg >= target && leg > 0 {
			f := (target - walked) / leg
			return Point{
				Lat: a.Lat + (b.Lat-a.Lat)*f,
				Lon: a.Lon + (b.Lon-a.Lon)*f,
			}
		}
		walked += leg
	}
	return s.End()
}

// Projection is the result of projecting a GPS point onto a segment.
type Projection struct {
	SegmentID      SegmentID
	Point          Point   // closest point on the polyline
	DistanceMeters float64 // perpendicular distance from the GPS point
	AlongMeters    float64 // distance from segment start to the projection
}

// Project returns the closest point on the segment's polyline to p, the
// perpendicular distance, and the along-track offset. It approximates each
// leg as planar, which is accurate for the sub-kilometer legs used here.
// Of equally distant legs the first wins.
//
// The distance is DistanceMeters(p, ·) of each leg's closest point. It
// grows with the haversine h, so a leg whose h is above the best leg's
// cannot be closer and skips the square root and arcsine; the others are
// compared in metres, so the result is the one a DistanceMeters per leg
// gives, bit for bit.
func (s *Segment) Project(p Point) Projection {
	best := Projection{SegmentID: s.ID, DistanceMeters: math.Inf(1)}
	bestH := math.Inf(1)
	var walked float64
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	cosP := math.Cos(p.Lat * degToRad)
	for i := 1; i < len(s.Polyline); i++ {
		a, b := s.Polyline[i-1], s.Polyline[i]
		leg := s.legs[i-1]
		// Planar approximation in a local tangent frame (meters).
		ax := (a.Lon - p.Lon) * cosLat
		ay := a.Lat - p.Lat
		bx := (b.Lon - p.Lon) * cosLat
		by := b.Lat - p.Lat
		dx, dy := bx-ax, by-ay
		t := 0.0
		if l2 := dx*dx + dy*dy; l2 > 0 {
			t = -(ax*dx + ay*dy) / l2
			t = math.Max(0, math.Min(1, t))
		}
		proj := Point{
			Lat: a.Lat + (b.Lat-a.Lat)*t,
			Lon: a.Lon + (b.Lon-a.Lon)*t,
		}
		if h := haversine(p, proj, cosP); h <= bestH {
			if d := arcMeters(h); d < best.DistanceMeters {
				best.Point = proj
				best.DistanceMeters = d
				best.AlongMeters = walked + t*leg
				bestH = h
			}
		}
		walked += leg
	}
	return best
}

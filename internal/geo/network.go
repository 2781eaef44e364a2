package geo

import (
	"fmt"
	"math"
	"sort"
)

// Network is a collection of road segments with a coarse spatial index.
// It is the substrate the trace generator drives vehicles over and the map
// matcher matches GPS fixes against.
type Network struct {
	segments map[SegmentID]*Segment
	byType   map[RoadType][]*Segment
	// adjacency: successor segments reachable from the end of a segment.
	next map[SegmentID][]SegmentID
	// grid index: cell -> segments whose bounding box intersects it.
	grid     map[gridCell][]*Segment
	cellSize float64 // degrees
}

type gridCell struct{ x, y int }

// NewNetwork creates an empty network. cellSizeDeg controls the spatial
// index resolution; 0 selects a default of 0.005 degrees (~500 m).
func NewNetwork(cellSizeDeg float64) *Network {
	if cellSizeDeg <= 0 {
		cellSizeDeg = 0.005
	}
	return &Network{
		segments: make(map[SegmentID]*Segment),
		byType:   make(map[RoadType][]*Segment),
		next:     make(map[SegmentID][]SegmentID),
		grid:     make(map[gridCell][]*Segment),
		cellSize: cellSizeDeg,
	}
}

// AddSegment inserts a segment. Duplicate IDs are rejected.
func (n *Network) AddSegment(s *Segment) error {
	if s == nil {
		return fmt.Errorf("nil segment")
	}
	if _, ok := n.segments[s.ID]; ok {
		return fmt.Errorf("duplicate segment id %d", s.ID)
	}
	n.segments[s.ID] = s
	n.byType[s.Type] = append(n.byType[s.Type], s)
	for _, c := range n.cellsFor(s) {
		n.grid[c] = append(n.grid[c], s)
	}
	return nil
}

// Connect declares that segment to is reachable from the end of segment
// from, used by route generation and the map matcher's transition model.
func (n *Network) Connect(from, to SegmentID) error {
	if _, ok := n.segments[from]; !ok {
		return fmt.Errorf("connect: unknown segment %d", from)
	}
	if _, ok := n.segments[to]; !ok {
		return fmt.Errorf("connect: unknown segment %d", to)
	}
	n.next[from] = append(n.next[from], to)
	return nil
}

// Segment returns the segment with the given ID, or nil.
func (n *Network) Segment(id SegmentID) *Segment { return n.segments[id] }

// Successors returns the IDs of segments reachable from the end of id.
// The returned slice is a copy.
func (n *Network) Successors(id SegmentID) []SegmentID {
	src := n.next[id]
	out := make([]SegmentID, len(src))
	copy(out, src)
	return out
}

// SegmentCount returns the number of segments in the network.
func (n *Network) SegmentCount() int { return len(n.segments) }

// SegmentsOfType returns all segments of the given type. The returned slice
// is a copy sorted by ID for determinism.
func (n *Network) SegmentsOfType(t RoadType) []*Segment {
	src := n.byType[t]
	out := make([]*Segment, len(src))
	copy(out, src)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllSegments returns every segment, sorted by ID.
func (n *Network) AllSegments() []*Segment {
	out := make([]*Segment, 0, len(n.segments))
	for _, s := range n.segments {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalLengthMeters returns the summed length of all segments of type t.
func (n *Network) TotalLengthMeters(t RoadType) float64 {
	var total float64
	for _, s := range n.byType[t] {
		total += s.LengthMeters()
	}
	return total
}

func (n *Network) cellOf(p Point) gridCell {
	return gridCell{
		x: int(math.Floor(p.Lon / n.cellSize)),
		y: int(math.Floor(p.Lat / n.cellSize)),
	}
}

func (n *Network) cellsFor(s *Segment) []gridCell {
	lo, hi := n.cellOf(s.lo), n.cellOf(s.hi)
	cells := make([]gridCell, 0, (hi.x-lo.x+1)*(hi.y-lo.y+1))
	for x := lo.x; x <= hi.x; x++ {
		for y := lo.y; y <= hi.y; y++ {
			cells = append(cells, gridCell{x: x, y: y})
		}
	}
	return cells
}

// Nearby returns the segments whose indexed cells fall within radiusMeters
// of p, sorted by projected distance (closest first). It is the candidate
// generator for map matching.
func (n *Network) Nearby(p Point, radiusMeters float64) []Projection {
	if len(n.segments) == 0 {
		return nil
	}
	// Convert the radius to a cell span.
	metersPerDegLat := 111_320.0
	span := int(math.Ceil(radiusMeters/metersPerDegLat/n.cellSize)) + 1
	center := n.cellOf(p)
	first := gridCell{x: center.x - span, y: center.y - span}
	far := newFarTest(p, radiusMeters)
	var out []Projection
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			c := gridCell{x: center.x + dx, y: center.y + dy}
			for _, s := range n.grid[c] {
				// A segment is listed in every cell its box touches:
				// take it in the first of them this scan visits.
				lo := n.cellOf(s.lo)
				if c != (gridCell{x: max(lo.x, first.x), y: max(lo.y, first.y)}) || far.beyond(s) {
					continue
				}
				proj := s.Project(p)
				if proj.DistanceMeters <= radiusMeters {
					out = append(out, proj)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistanceMeters != out[j].DistanceMeters {
			return out[i].DistanceMeters < out[j].DistanceMeters
		}
		return out[i].SegmentID < out[j].SegmentID
	})
	return out
}

// farTest rules a segment out of a radius search by its bounding box
// alone, without projecting onto it.
//
// DistanceMeters(p, q) is 2R·asin(√h) with
// h = sin²(Δφ/2) + cos φp·cos φq·sin²(Δλ/2), which grows with h. Project's
// point lies on a leg of the polyline, so inside the box [lo, hi]. For
// every q in the box: |Δφ| is at least gφ, the gap between p's latitude
// and the box's latitude interval; cos φq is at least the smaller of cos
// lo.Lat and cos hi.Lat, since cos is concave on [-90°, 90°]; and when no
// point of the box is more than 180° of longitude from p, |Δλ| lies in
// [gλ, 180°], where sin²(Δλ/2) grows, so it is at least sin²(gλ/2). Every
// term of h is then at least its bound, and if the bounds already sum to
// more than sin²(r/2R), every point of the box — the projection included
// — is farther than r. hMax carries a relative margin of 1e-9, far above
// the rounding of either side, so the test never drops a segment that the
// projection would keep.
type farTest struct {
	p      Point
	cosLat float64 // cos φp
	hMax   float64 // sin²(r/2R), plus the margin
}

func newFarTest(p Point, radiusMeters float64) farTest {
	sinR := math.Sin(math.Min(radiusMeters/(2*EarthRadiusMeters), math.Pi/2))
	return farTest{p: p, cosLat: math.Cos(p.Lat * math.Pi / 180), hMax: sinR * sinR * (1 + 1e-9)}
}

// beyond reports whether every point of s's bounding box is farther than
// the radius from p.
func (f farTest) beyond(s *Segment) bool {
	const degToRad = math.Pi / 180
	gLat := math.Max(0, math.Max(s.lo.Lat-f.p.Lat, f.p.Lat-s.hi.Lat)) * degToRad
	sinLat := math.Sin(gLat / 2)
	h := sinLat * sinLat
	if math.Max(f.p.Lon-s.lo.Lon, s.hi.Lon-f.p.Lon) <= 180 {
		gLon := math.Max(0, math.Max(s.lo.Lon-f.p.Lon, f.p.Lon-s.hi.Lon)) * degToRad
		sinLon := math.Sin(gLon / 2)
		cosBox := math.Min(math.Cos(s.lo.Lat*degToRad), math.Cos(s.hi.Lat*degToRad))
		h += f.cosLat * cosBox * sinLon * sinLon
	}
	return h > f.hMax
}

package geo

import (
	"fmt"
	"math"
	"slices"
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
	grid     map[gridCell][]gridEntry
	cellSize float64 // degrees
	// lo and hi are the corners of the bounding box of every segment.
	lo, hi Point
}

type gridCell struct{ x, y int }

// gridEntry lists a segment in a grid cell, with the cells of its box's
// corners.
type gridEntry struct {
	seg    *Segment
	lo, hi gridCell
}

// nearestTo returns the cell of the entry's box nearest to c, axis by
// axis: a radius search around c takes the segment there, in the first
// ring of cells that reaches its box.
func (e *gridEntry) nearestTo(c gridCell) gridCell {
	return gridCell{x: min(max(c.x, e.lo.x), e.hi.x), y: min(max(c.y, e.lo.y), e.hi.y)}
}

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
		grid:     make(map[gridCell][]gridEntry),
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
	if len(n.segments) == 0 {
		n.lo, n.hi = s.lo, s.hi
	}
	n.lo = Point{Lat: math.Min(n.lo.Lat, s.lo.Lat), Lon: math.Min(n.lo.Lon, s.lo.Lon)}
	n.hi = Point{Lat: math.Max(n.hi.Lat, s.hi.Lat), Lon: math.Max(n.hi.Lon, s.hi.Lon)}
	n.segments[s.ID] = s
	n.byType[s.Type] = append(n.byType[s.Type], s)
	e := gridEntry{seg: s, lo: n.cellOf(s.lo), hi: n.cellOf(s.hi)}
	for x := e.lo.x; x <= e.hi.x; x++ {
		for y := e.lo.y; y <= e.hi.y; y++ {
			c := gridCell{x: x, y: y}
			n.grid[c] = append(n.grid[c], e)
		}
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

func (n *Network) cellOf(p Point) gridCell {
	return gridCell{
		x: int(math.Floor(p.Lon / n.cellSize)),
		y: int(math.Floor(p.Lat / n.cellSize)),
	}
}

// Nearby returns every segment within radiusMeters of p, sorted by
// projected distance (closest first), ties by ID. It is the candidate
// generator for map matching.
func (n *Network) Nearby(p Point, radiusMeters float64) []Projection {
	var out []Projection
	far := newFarTest(p, radiusMeters)
	n.scan(p, radiusMeters, &far, func(s *Segment) {
		if proj := s.Project(p); proj.DistanceMeters <= radiusMeters {
			out = append(out, proj)
		}
	})
	sort.Slice(out, func(i, j int) bool { return closer(out[i], out[j]) })
	return out
}

// closer is Nearby's order: distance, then segment ID.
func closer(a, b Projection) bool {
	if a.DistanceMeters != b.DistanceMeters {
		return a.DistanceMeters < b.DistanceMeters
	}
	return a.SegmentID < b.SegmentID
}

// nearest appends to dst, closest first, the first k segments that
// Nearby(p, radiusMeters) lists once the IDs in skip are left out,
// without listing the rest. Once it holds k, the search radius shrinks to
// the k-th distance: a segment whose box is beyond that cannot displace
// one of them, and a segment at exactly that distance is still projected
// (farTest's margin), where the ID decides as it does in Nearby.
func (n *Network) nearest(dst []Projection, p Point, radiusMeters float64, k int, skip []SegmentID) []Projection {
	base := len(dst)
	far := newFarTest(p, radiusMeters)
	n.scan(p, radiusMeters, &far, func(s *Segment) {
		if slices.Contains(skip, s.ID) {
			return
		}
		proj := s.Project(p)
		full := len(dst)-base == k
		if proj.DistanceMeters > radiusMeters || full && !closer(proj, dst[len(dst)-1]) {
			return
		}
		if !full {
			dst = append(dst, proj)
		}
		i := len(dst) - 1
		for ; i > base && closer(proj, dst[i-1]); i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = proj
		if len(dst)-base == k {
			far.setRadius(dst[len(dst)-1].DistanceMeters)
		}
	})
	return dst
}

// scan calls visit once for every segment indexed in the grid window
// around p that holds every point within radiusMeters, unless far rules
// its box out. visit may shrink far's radius as the scan goes.
//
// The scan walks rings of cells outwards from p's and takes each segment
// at its box's cell nearest p's, so a segment is met in the innermost
// ring that its box reaches. Every point of a box first met in ring r or
// later is at least the ring's gaps from p, in latitude or in longitude,
// so once far rules out both gaps, it would rule out every box still to
// come, and the scan stops.
func (n *Network) scan(p Point, radiusMeters float64, far *farTest, visit func(*Segment)) {
	if len(n.segments) == 0 {
		return
	}
	spanX, spanY := n.window(p, radiusMeters)
	center := n.cellOf(p)
	// The longitude bound holds for boxes within 180° of p's longitude
	// and leans on the smallest cosine of any box's latitude.
	cosNet := 0.0
	if math.Max(p.Lon-n.lo.Lon, n.hi.Lon-p.Lon) <= 180 {
		cosNet = math.Min(math.Cos(n.lo.Lat*degToRad), math.Cos(n.hi.Lat*degToRad))
	}
	for r := 0; r <= max(spanX, spanY); r++ {
		if r > 0 {
			if gLat, gLon := n.ringGaps(p, center, r); far.outside(gLat, gLon, cosNet) {
				return
			}
		}
		for dx := -min(r, spanX); dx <= min(r, spanX); dx++ {
			step := 1 // the ring's side columns, whole
			if dx != -r && dx != r {
				step = 2 * r // its top and bottom cells
			}
			for dy := -r; dy <= r; dy += step {
				if dy < -spanY || dy > spanY {
					continue
				}
				c := gridCell{x: center.x + dx, y: center.y + dy}
				listed := n.grid[c]
				for i := range listed {
					e := &listed[i]
					// A segment is listed in every cell its box
					// touches: take it in the one nearest p's.
					if e.nearestTo(center) != c || far.beyond(e.seg) {
						continue
					}
					visit(e.seg)
				}
			}
		}
	}
}

// ringGaps returns the least gap, in radians of latitude and of
// longitude, between p and the cells r rings out from p's cell: a point
// of any cell in ring r or beyond is at least gLat from p in latitude or
// at least gLon in longitude. The cell edges are products, not
// coordinates, so each gap gives up 1e-9° (~0.1 mm) to their rounding.
func (n *Network) ringGaps(p Point, center gridCell, r int) (gLat, gLon float64) {
	const slack = 1e-9
	c := n.cellSize
	gLat = math.Min(float64(center.y+r)*c-p.Lat, p.Lat-float64(center.y-r+1)*c) - slack
	gLon = math.Min(float64(center.x+r)*c-p.Lon, p.Lon-float64(center.x-r+1)*c) - slack
	return math.Max(0, gLat) * degToRad, math.Max(0, gLon) * degToRad
}

// window returns how many grid cells either side of p's cell a radius
// search scans along each axis: enough to reach every point within
// radiusMeters. Those points lie within d = r/R radians of p's latitude
// and within asin(sin d / cos φp) of its longitude, so the longitude span
// widens with latitude; a circle that takes in a pole spans every
// longitude.
func (n *Network) window(p Point, radiusMeters float64) (spanX, spanY int) {
	const radToDeg = 180 / math.Pi
	d := math.Min(radiusMeters/EarthRadiusMeters, math.Pi/2)
	lonDeg := 180.0
	if sinD, cosP := math.Sin(d), math.Cos(p.Lat*degToRad); sinD < cosP {
		lonDeg = math.Asin(sinD/cosP) * radToDeg
	}
	spanX = int(math.Ceil(lonDeg/n.cellSize)) + 1
	spanY = int(math.Ceil(d*radToDeg/n.cellSize)) + 1
	return spanX, spanY
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
	f := farTest{p: p, cosLat: math.Cos(p.Lat * math.Pi / 180)}
	f.setRadius(radiusMeters)
	return f
}

// setRadius moves the test to a new radius.
func (f *farTest) setRadius(radiusMeters float64) {
	sinR := math.Sin(math.Min(radiusMeters/(2*EarthRadiusMeters), math.Pi/2))
	f.hMax = sinR * sinR * (1 + 1e-9)
}

// outside reports whether every point at least gLat radians from p in
// latitude, or at least gLon radians in longitude at a latitude whose
// cosine is at least cosMin, is farther than the radius: the lesser of
// the two haversine terms already exceeds it. With cosMin 0 nothing is
// outside.
func (f *farTest) outside(gLat, gLon, cosMin float64) bool {
	sinLat := math.Sin(math.Min(gLat, math.Pi) / 2)
	sinLon := math.Sin(math.Min(gLon, math.Pi) / 2)
	return math.Min(sinLat*sinLat, f.cosLat*cosMin*sinLon*sinLon) > f.hMax
}

// beyond reports whether every point of s's bounding box is farther than
// the radius from p.
func (f *farTest) beyond(s *Segment) bool {
	gLat := math.Max(0, math.Max(s.lo.Lat-f.p.Lat, f.p.Lat-s.hi.Lat)) * degToRad
	sinLat := math.Sin(gLat / 2)
	h := sinLat * sinLat
	if h > f.hMax {
		return true
	}
	if math.Max(f.p.Lon-s.lo.Lon, s.hi.Lon-f.p.Lon) <= 180 {
		gLon := math.Max(0, math.Max(s.lo.Lon-f.p.Lon, f.p.Lon-s.hi.Lon)) * degToRad
		sinLon := math.Sin(gLon / 2)
		h += f.cosLat * s.cosBox * sinLon * sinLon
	}
	return h > f.hMax
}

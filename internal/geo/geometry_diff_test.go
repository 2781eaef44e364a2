package geo

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The reference geometry below is the segment and radius-search code as
// it was before segments cached their leg lengths and Nearby learned to
// rule segments out by bounding box: a haversine per leg, every listed
// candidate projected, a seen map against duplicates.

func refPointAt(s *Segment, frac float64) Point {
	if frac <= 0 {
		return s.Start()
	}
	if frac >= 1 {
		return s.End()
	}
	target := frac * s.LengthMeters()
	var walked float64
	for i := 1; i < len(s.Polyline); i++ {
		a, b := s.Polyline[i-1], s.Polyline[i]
		leg := DistanceMeters(a, b)
		if walked+leg >= target && leg > 0 {
			f := (target - walked) / leg
			return Point{Lat: a.Lat + (b.Lat-a.Lat)*f, Lon: a.Lon + (b.Lon-a.Lon)*f}
		}
		walked += leg
	}
	return s.End()
}

func refProject(s *Segment, p Point) Projection {
	best := Projection{SegmentID: s.ID, DistanceMeters: math.Inf(1)}
	var walked float64
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	for i := 1; i < len(s.Polyline); i++ {
		a, b := s.Polyline[i-1], s.Polyline[i]
		leg := DistanceMeters(a, b)
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
		proj := Point{Lat: a.Lat + (b.Lat-a.Lat)*t, Lon: a.Lon + (b.Lon-a.Lon)*t}
		if d := DistanceMeters(p, proj); d < best.DistanceMeters {
			best.Point = proj
			best.DistanceMeters = d
			best.AlongMeters = walked + t*leg
		}
		walked += leg
	}
	return best
}

func refNearby(n *Network, p Point, radiusMeters float64) []Projection {
	span := int(math.Ceil(radiusMeters/111_320.0/n.cellSize)) + 1
	center := n.cellOf(p)
	seen := make(map[SegmentID]bool)
	var out []Projection
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			for _, e := range n.grid[gridCell{x: center.x + dx, y: center.y + dy}] {
				s := e.seg
				if seen[s.ID] {
					continue
				}
				seen[s.ID] = true
				if proj := refProject(s, p); proj.DistanceMeters <= radiusMeters {
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

func refConnectNearest(net *Network, k int, radiusMeters float64) int {
	added := 0
	for _, seg := range net.AllSegments() {
		have := make(map[SegmentID]bool)
		for _, id := range net.Successors(seg.ID) {
			have[id] = true
		}
		if len(have) >= k {
			continue
		}
		for _, proj := range refNearby(net, seg.End(), radiusMeters) {
			if len(have) >= k {
				break
			}
			if proj.SegmentID == seg.ID || have[proj.SegmentID] {
				continue
			}
			if err := net.Connect(seg.ID, proj.SegmentID); err != nil {
				continue
			}
			have[proj.SegmentID] = true
			added++
		}
	}
	return added
}

func refNearestSegment(candidates []*Segment, p Point) *Segment {
	best := candidates[0]
	bestD := DistanceMeters(best.Start(), p)
	for _, s := range candidates[1:] {
		if d := DistanceMeters(s.Start(), p); d < bestD {
			best, bestD = s, d
		}
	}
	return best
}

// TestGeometryMatchesUncachedReference: on the street network the city
// benchmark builds, densification adds the same successors in the same
// order as the reference, and PointAt, Project and Nearby return the
// reference's results bit for bit. Project is checked from every
// segment's end onto every segment, where no box may be ruled out at
// exactly its projected distance, and the builder's nearest-start
// search from every end against each road type.
func TestGeometryMatchesUncachedReference(t *testing.T) {
	cfg := BuildConfig{Scale: 0.25, ExtentMeters: 12_000, Seed: 42}
	net, err := BuildNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	added, refAdded := ConnectNearest(net, 2, 1500), refConnectNearest(ref, 2, 1500)
	if added != refAdded || added == 0 {
		t.Fatalf("ConnectNearest added %d edges, the reference %d", added, refAdded)
	}
	segs := net.AllSegments()
	for _, from := range segs {
		p := from.End()
		for _, s := range segs {
			got, want := s.Project(p), refProject(s, p)
			if got != want {
				t.Fatalf("segment %d: Project(end of %d) = %+v, reference %+v", s.ID, from.ID, got, want)
			}
			// A search whose radius is exactly this distance, as a k-th
			// nearest one's becomes, must still project the segment.
			if far := newFarTest(p, got.DistanceMeters); far.beyond(s) {
				t.Fatalf("segment %d: box ruled out at its own distance %v from the end of %d", s.ID, got.DistanceMeters, from.ID)
			}
		}
		for _, typ := range AllRoadTypes() {
			if cands := net.SegmentsOfType(typ); len(cands) > 0 {
				if got, want := nearestSegment(cands, p), refNearestSegment(cands, p); got != want {
					t.Fatalf("nearest %v start to the end of %d: %d, reference %d", typ, from.ID, got.ID, want.ID)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range segs {
		if got, want := net.Successors(s.ID), ref.Successors(s.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("segment %d: successors %v, reference %v", s.ID, got, want)
		}
		for _, frac := range []float64{0, rng.Float64(), rng.Float64(), 0.5, 1} {
			if got, want := s.PointAt(frac), refPointAt(s, frac); got != want {
				t.Fatalf("segment %d: PointAt(%v) = %v, reference %v", s.ID, frac, got, want)
			}
		}
		probe := Destination(s.PointAt(rng.Float64()), rng.Float64()*360, rng.Float64()*2000)
		if got, want := s.Project(probe), refProject(s, probe); got != want {
			t.Fatalf("segment %d: Project = %+v, reference %+v", s.ID, got, want)
		}
		for _, radius := range []float64{300, 1500} {
			if got, want := net.Nearby(probe, radius), refNearby(net, probe, radius); !reflect.DeepEqual(got, want) {
				t.Fatalf("segment %d: Nearby(%v, %v) differs from the reference:\n%v\n%v", s.ID, probe, radius, got, want)
			}
		}
	}
}

// sortedNearby is Nearby as it was before radius searches walked rings
// and stopped early: the window's cells in rows, each segment taken in
// the window's lowest corner of its box, every survivor of the box test
// projected and the lot sorted. Its window is sized in latitude metres on
// both axes, which holds at Shenzhen's latitude.
func sortedNearby(n *Network, p Point, radiusMeters float64) []Projection {
	span := int(math.Ceil(radiusMeters/111_320.0/n.cellSize)) + 1
	center := n.cellOf(p)
	first := gridCell{x: center.x - span, y: center.y - span}
	far := newFarTest(p, radiusMeters)
	var out []Projection
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			c := gridCell{x: center.x + dx, y: center.y + dy}
			for _, e := range n.grid[c] {
				if c != (gridCell{x: max(e.lo.x, first.x), y: max(e.lo.y, first.y)}) || far.beyond(e.seg) {
					continue
				}
				if proj := e.seg.Project(p); proj.DistanceMeters <= radiusMeters {
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

// sortedConnectNearest is ConnectNearest as it was: every candidate in
// the radius listed and sorted, then the first k not already joined.
// nearby lists them; a segment's joins go to its own successor list
// only, so the lists can be kept from one k to the next.
func sortedConnectNearest(net *Network, k int, nearby func(*Segment) []Projection) int {
	added := 0
	var have []SegmentID
	for _, seg := range net.AllSegments() {
		have = have[:0]
		for _, id := range net.next[seg.ID] {
			if !slices.Contains(have, id) {
				have = append(have, id)
			}
		}
		if len(have) >= k {
			continue
		}
		for _, proj := range nearby(seg) {
			if len(have) >= k {
				break
			}
			if proj.SegmentID == seg.ID || slices.Contains(have, proj.SegmentID) {
				continue
			}
			if err := net.Connect(seg.ID, proj.SegmentID); err != nil {
				continue
			}
			have = append(have, proj.SegmentID)
			added++
		}
	}
	return added
}

// TestConnectNearestMatchesReference: the k-nearest joins make exactly
// the sort-everything joins, successor list for successor list, across
// networks, join counts and radii.
func TestConnectNearestMatchesReference(t *testing.T) {
	for _, seed := range []int64{42, 1, 7, 21, 99} {
		for _, scale := range []float64{0.05, 0.25, 0.5} {
			net, err := BuildNetwork(BuildConfig{Scale: scale, ExtentMeters: 12_000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			// Both joins start from the builder's adjacency.
			built := make(map[SegmentID][]SegmentID, len(net.next))
			for id, succ := range net.next {
				built[id] = slices.Clone(succ)
			}
			reset := func() {
				net.next = make(map[SegmentID][]SegmentID, len(built))
				for id, succ := range built {
					net.next[id] = slices.Clone(succ)
				}
			}
			for _, radius := range []float64{300, 1500} {
				lists := make(map[SegmentID][]Projection)
				nearby := func(s *Segment) []Projection {
					if _, ok := lists[s.ID]; !ok {
						lists[s.ID] = sortedNearby(net, s.End(), radius)
					}
					return lists[s.ID]
				}
				for _, k := range []int{1, 2, 3} {
					reset()
					added, got := ConnectNearest(net, k, radius), net.next
					reset()
					refAdded, want := sortedConnectNearest(net, k, nearby), net.next
					if added != refAdded {
						t.Fatalf("seed %d scale %v k %d radius %v: %d joins, reference %d", seed, scale, k, radius, added, refAdded)
					}
					for _, s := range net.AllSegments() {
						if !slices.Equal(got[s.ID], want[s.ID]) {
							t.Fatalf("seed %d scale %v k %d radius %v: segment %d successors %v, reference %v",
								seed, scale, k, radius, s.ID, got[s.ID], want[s.ID])
						}
					}
				}
			}
		}
	}
}

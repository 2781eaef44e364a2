package geo

import (
	"math"
	"math/rand"
	"reflect"
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
			for _, s := range n.grid[gridCell{x: center.x + dx, y: center.y + dy}] {
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

// TestGeometryMatchesUncachedReference: on the street network the city
// benchmark builds, densification adds the same successors in the same
// order as the reference, and PointAt, Project and Nearby return the
// reference's results bit for bit.
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
	rng := rand.New(rand.NewSource(1))
	for _, s := range net.AllSegments() {
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

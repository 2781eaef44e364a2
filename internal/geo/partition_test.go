package geo

import (
	"math/rand"
	"reflect"
	"testing"
)

// buildTestCity builds a small deterministic synthetic network, densified
// so random walks keep moving.
func buildTestCity(t *testing.T, seed int64) *Network {
	t.Helper()
	net, err := BuildNetwork(BuildConfig{Scale: 0.05, ExtentMeters: 6000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if added := ConnectNearest(net, 2, 1500); added == 0 {
		t.Fatal("ConnectNearest added no connections on a synthetic city")
	}
	return net
}

func testPartition(t *testing.T, net *Network, shards int) *CityPartition {
	t.Helper()
	cp, err := PartitionCity(net, PartitionConfig{Shards: shards, CellMeters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestPlaceRSUSitesDeterministicAndCoverage(t *testing.T) {
	net := buildTestCity(t, 1)
	a := PlaceRSUSites(net, 1000)
	b := PlaceRSUSites(net, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PlaceRSUSites is not deterministic")
	}
	if len(a) < net.SegmentCount() {
		t.Fatalf("placed %d sites for %d segments; want at least one per segment",
			len(a), net.SegmentCount())
	}
	// Site IDs are dense and ordered by (segment, along).
	for i, s := range a {
		if s.ID != i {
			t.Fatalf("site %d has ID %d", i, s.ID)
		}
		if i > 0 && a[i-1].Segment == s.Segment && a[i-1].AlongMeters >= s.AlongMeters {
			t.Fatalf("sites %d,%d out of along order on segment %d", i-1, i, s.Segment)
		}
	}
	// The site count tracks the rsuplan.go budget model to within
	// rounding (one per short segment vs fractional budget rows).
	planned := TotalRSUs(PlanRSUsFromNetwork(net, 1000))
	if len(a) < planned/2 || len(a) > planned*3 {
		t.Fatalf("placed %d sites, plan budget %d: placement diverged from the plan", len(a), planned)
	}
}

func TestSiteIndexMatchesNearestCenter(t *testing.T) {
	net := buildTestCity(t, 2)
	sites := PlaceRSUSites(net, 800)
	idx := NewSiteIndex(sites)
	for _, seg := range net.AllSegments()[:10] {
		length := seg.LengthMeters()
		for frac := 0.0; frac <= 1.0; frac += 0.25 {
			along := frac * length
			got, ok := idx.SiteAt(seg.ID, along)
			if !ok {
				t.Fatalf("segment %d has no site", seg.ID)
			}
			// Brute force: the returned site must be (one of) the closest.
			best := -1.0
			for _, s := range idx.Sites(seg.ID) {
				d := s.AlongMeters - along
				if d < 0 {
					d = -d
				}
				if best < 0 || d < best {
					best = d
				}
			}
			gd := got.AlongMeters - along
			if gd < 0 {
				gd = -gd
			}
			if gd > best+1e-9 {
				t.Fatalf("SiteAt(%d, %.1f) returned site %.1fm away; closest is %.1fm",
					seg.ID, along, gd, best)
			}
		}
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1, err := NewRing(8, 128)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(8, 128)
	counts := make([]int, 8)
	for k := uint64(0); k < 10_000; k++ {
		s := r1.ShardForKey(k)
		if s != r2.ShardForKey(k) {
			t.Fatalf("ring assignment for key %d differs between identical rings", k)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 10_000/8/3 || c > 10_000/8*3 {
			t.Fatalf("shard %d owns %d of 10000 keys: ring badly unbalanced %v", s, c, counts)
		}
	}
}

func TestPositionCellLocality(t *testing.T) {
	p := Point{Lat: 22.54, Lon: 114.05}
	q := Point{Lat: p.Lat + 0.0001, Lon: p.Lon + 0.0001} // ~11 m away
	if PositionCell(p, 2000) != PositionCell(q, 2000) {
		t.Fatal("points 11m apart landed in different 2km cells")
	}
	far := Point{Lat: p.Lat + 0.1, Lon: p.Lon} // ~11 km away
	if PositionCell(p, 2000) == PositionCell(far, 2000) {
		t.Fatal("points 11km apart share a 2km cell")
	}
}

// TestShardPathDeterministic is the satellite coverage for journeys
// across partition boundaries: a journey's map-matched path must yield
// a deterministic shard sequence under the consistent-hash ring.
func TestShardPathDeterministic(t *testing.T) {
	net := buildTestCity(t, 3)
	cp1 := testPartition(t, net, 8)
	cp2 := testPartition(t, net, 8)

	segs := net.AllSegments()
	rng := rand.New(rand.NewSource(42))
	crossings := 0
	for i := 0; i < 50; i++ {
		start := segs[rng.Intn(len(segs))].ID
		routeA := randomWalk(net, start, seededPick(rng.Int63()), 30)
		pathA := cp1.ShardPath(routeA)
		pathB := cp2.ShardPath(routeA)
		if !reflect.DeepEqual(pathA, pathB) {
			t.Fatalf("shard path differs across identically-configured partitions:\n%v\n%v", pathA, pathB)
		}
		if len(pathA) == 0 {
			t.Fatalf("route %v produced an empty shard path", routeA)
		}
		for j, s := range pathA {
			if s < 0 || s >= cp1.Shards() {
				t.Fatalf("shard path %v has out-of-range shard at %d", pathA, j)
			}
			if j > 0 && pathA[j-1] == s {
				t.Fatalf("shard path %v has consecutive duplicates", pathA)
			}
		}
		crossings += len(pathA) - 1
	}
	if crossings == 0 {
		t.Fatal("no route crossed a shard boundary; partition too coarse for the test city")
	}
}

// randomWalk is a route of up to maxSegs segments from start, choosing
// each successor with pick(n) in [0, n) and stopping at a dead end.
func randomWalk(net *Network, start SegmentID, pick func(n int) int, maxSegs int) []SegmentID {
	route := []SegmentID{start}
	for len(route) < maxSegs {
		succ := net.Successors(route[len(route)-1])
		if len(succ) == 0 {
			break
		}
		route = append(route, succ[pick(len(succ))])
	}
	return route
}

// seededPick returns a deterministic pick function from one seed.
func seededPick(seed int64) func(n int) int {
	rng := rand.New(rand.NewSource(seed))
	return func(n int) int { return rng.Intn(n) }
}

// TestShardPathMatchesIncrementalWalk pins the equivalence the city
// driver relies on: walking a route site-by-site through ShardAt
// produces exactly the ShardPath sequence.
func TestShardPathMatchesIncrementalWalk(t *testing.T) {
	net := buildTestCity(t, 4)
	cp := testPartition(t, net, 6)
	segs := net.AllSegments()
	route := randomWalk(net, segs[0].ID, seededPick(7), 40)

	var walked []int
	for _, segID := range route {
		seg := net.Segment(segID)
		for _, site := range cp.idx.Sites(segID) {
			_ = seg
			shard := cp.ShardOfSite(site.ID)
			if len(walked) == 0 || walked[len(walked)-1] != shard {
				walked = append(walked, shard)
			}
		}
	}
	if !reflect.DeepEqual(walked, cp.ShardPath(route)) {
		t.Fatalf("incremental walk %v != ShardPath %v", walked, cp.ShardPath(route))
	}
}

func TestBoundariesConsistent(t *testing.T) {
	net := buildTestCity(t, 5)
	cp := testPartition(t, net, 8)
	bounds := cp.Boundaries()
	if len(bounds) == 0 {
		t.Fatal("a multi-shard city has no boundaries")
	}
	for _, b := range bounds {
		if b.FromShard == b.ToShard {
			t.Fatalf("boundary %+v joins a shard to itself", b)
		}
		if cp.ShardOfSite(b.FromSite) != b.FromShard || cp.ShardOfSite(b.ToSite) != b.ToShard {
			t.Fatalf("boundary %+v disagrees with site assignment", b)
		}
	}
	counts := cp.ShardSiteCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(cp.Sites) {
		t.Fatalf("shard site counts sum to %d, want %d", total, len(cp.Sites))
	}
}

func TestConnectNearestNavigable(t *testing.T) {
	net, err := BuildNetwork(BuildConfig{Scale: 0.05, ExtentMeters: 6000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, s := range net.AllSegments() {
		if len(net.Successors(s.ID)) > 0 {
			before++
		}
	}
	ConnectNearest(net, 2, 1500)
	after := 0
	for _, s := range net.AllSegments() {
		if len(net.Successors(s.ID)) > 0 {
			after++
		}
	}
	if after <= before {
		t.Fatalf("densification left navigability unchanged: %d -> %d segments with successors", before, after)
	}
	if frac := float64(after) / float64(net.SegmentCount()); frac < 0.9 {
		t.Fatalf("only %.0f%% of segments have successors after densification", frac*100)
	}
	// Random walks over the successors must keep moving from any
	// navigable start.
	steps := len(randomWalk(net, net.AllSegments()[0].ID, seededPick(9), 101)) - 1
	if steps < 50 {
		t.Fatalf("random walk stalled after %d steps", steps)
	}
}

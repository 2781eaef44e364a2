package trace

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cad3/internal/geo"
)

func generateSmallDataset(t *testing.T, cars int, seed int64) (*geo.Network, *Dataset) {
	t.Helper()
	net := testNetwork(t)
	g, err := NewGenerator(GeneratorConfig{Network: net, Cars: cars, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return net, ds
}

func TestDeriveRecordsBasic(t *testing.T) {
	net, ds := generateSmallDataset(t, 10, 1)
	recs, err := DeriveRecords(net, ds.Trajectories, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records derived")
	}
	for i, r := range recs {
		if r.Speed < 0 {
			t.Fatalf("record %d: negative speed %.2f", i, r.Speed)
		}
		if r.Hour < 0 || r.Hour > 23 || r.Day < 1 || r.Day > 31 {
			t.Fatalf("record %d: bad context hour=%d day=%d", i, r.Hour, r.Day)
		}
		if !r.RoadType.Valid() {
			t.Fatalf("record %d: invalid road type", i)
		}
	}
}

func TestDeriveSpeedMatchesKinematics(t *testing.T) {
	// Hand-built trajectory: two fixes 27.78 m apart, 1 s apart
	// -> 100 km/h... use 27.78 m => 27.78 m/s = 100 km/h.
	net := geo.NewNetwork(0)
	start := geo.ShenzhenCenter
	pts := []geo.Point{start, geo.Destination(start, 90, 1000)}
	seg, err := geo.NewSegment(1, geo.Motorway, "m", pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddSegment(seg); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2016, 7, 4, 9, 0, 0, 0, time.UTC)
	mk := func(d float64, ts time.Time) TrajectoryPoint {
		p := geo.Destination(start, 90, d)
		return TrajectoryPoint{Car: 1, Trip: 1, Lat: p.Lat, Lon: p.Lon, GPSTime: ts, SegmentID: 1}
	}
	traj := []TrajectoryPoint{
		mk(0, t0),
		mk(27.78, t0.Add(time.Second)),
		mk(2*27.78, t0.Add(2*time.Second)),
	}
	recs, err := DeriveRecords(net, traj, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if math.Abs(recs[0].Speed-100) > 1 {
		t.Errorf("speed = %.2f, want ~100 km/h", recs[0].Speed)
	}
	if math.Abs(recs[1].Accel) > 0.5 {
		t.Errorf("constant speed should give ~0 accel, got %.2f", recs[1].Accel)
	}
	if recs[0].Hour != 9 || recs[0].Day != 4 {
		t.Errorf("context hour=%d day=%d", recs[0].Hour, recs[0].Day)
	}
	// Road mean speed should be the mean of the two instantaneous speeds.
	if math.Abs(recs[0].RoadMeanSpeed-100) > 1 {
		t.Errorf("road mean speed = %.2f, want ~100", recs[0].RoadMeanSpeed)
	}
}

func TestDeriveHandlesUnsortedInput(t *testing.T) {
	net, ds := generateSmallDataset(t, 3, 9)
	// Reverse the input; derivation must sort internally.
	rev := make([]TrajectoryPoint, len(ds.Trajectories))
	for i, p := range ds.Trajectories {
		rev[len(rev)-1-i] = p
	}
	a, err := DeriveRecords(net, ds.Trajectories, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeriveRecords(net, rev, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
}

func TestDeriveWithMapMatching(t *testing.T) {
	net, ds := generateSmallDataset(t, 2, 4)
	matcher := geo.NewMatcher(net, geo.MatcherConfig{})
	recs, err := DeriveRecords(net, ds.Trajectories, DeriveOptions{UseMapMatching: true, Matcher: matcher})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records derived with map matching")
	}
	// Matched road types should mostly agree with ground truth.
	truth, err := DeriveRecords(net, ds.Trajectories, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(truth) {
		t.Skipf("record counts differ (%d vs %d); matcher fallback path", len(recs), len(truth))
	}
	agree := 0
	for i := range recs {
		if recs[i].Road == truth[i].Road {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(recs)); frac < 0.7 {
		t.Errorf("map matching agrees with ground truth on %.0f%% of records, want >= 70%%", frac*100)
	}
}

func TestRecordWireSizeApprox200Bytes(t *testing.T) {
	r := Record{
		Car: 12345, Road: 556363, Accel: -2.35, Speed: 87.64, Hour: 18,
		Day: 21, RoadType: geo.Motorway, RoadMeanSpeed: 95.33,
		TimestampMs: time.Now().UnixMilli(),
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 100 || len(b) > 300 {
		t.Errorf("wire size %d bytes, want ~200 (paper's packet size)", len(b))
	}
}

// TestGroupByTripMatchesMapGrouping: the count-then-fill grouping hands
// DeriveRecords each trip's points in the order a map of per-trip
// appends did — trips by ascending ID, each trip's points in input order —
// so the per-trip sort sees the same input, equal timestamps included.
func TestGroupByTripMatchesMapGrouping(t *testing.T) {
	_, ds := generateSmallDataset(t, 6, 4)
	rng := rand.New(rand.NewSource(5))
	pts := append([]TrajectoryPoint(nil), ds.Trajectories...)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	for i := 1; i < len(pts); i += 7 {
		pts[i].GPSTime = pts[i-1].GPSTime // ties for the unstable sort
	}

	byTrip := make(map[TripID][]TrajectoryPoint)
	var ids []TripID
	for _, p := range pts {
		if _, ok := byTrip[p.Trip]; !ok {
			ids = append(ids, p.Trip)
		}
		byTrip[p.Trip] = append(byTrip[p.Trip], p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	grouped, bounds := groupByTrip(pts)
	if len(bounds) != len(ids)+1 || bounds[len(ids)] != len(pts) {
		t.Fatalf("%d trip bounds ending at %d, want %d ending at %d", len(bounds), bounds[len(bounds)-1], len(ids)+1, len(pts))
	}
	for i, id := range ids {
		if got := grouped[bounds[i]:bounds[i+1]]; !reflect.DeepEqual(got, byTrip[id]) {
			t.Fatalf("trip %d: grouped points differ from the map grouping", id)
		}
	}
}

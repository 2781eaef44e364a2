package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPlanRSUsFromStatsReproducesTableV checks the exact Table V RSU
// column from the paper's own aggregate statistics.
func TestPlanRSUsFromStatsReproducesTableV(t *testing.T) {
	want := map[RoadType]int{
		Motorway:     1460,
		MotorwayLink: 94,
		Trunk:        1064,
		TrunkLink:    83,
		// The paper prints 956 for primary; with the rounded mean length
		// it publishes (668 m), 1431*668/1000 floors to 955 — the paper's
		// figure evidently used the unrounded mean. We assert the value
		// derivable from the published inputs.
		Primary:       955,
		PrimaryLink:   40,
		Secondary:     639,
		SecondaryLink: 6,
		Tertiary:      555,
		Residential:   101,
	}
	rows := PlanRSUsFromStats(ShenzhenRoadStats(), 0)
	for _, r := range rows {
		if r.RSUs != want[r.Type] {
			t.Errorf("%v: RSUs = %d, want %d (Table V)", r.Type, r.RSUs, want[r.Type])
		}
	}
	if got := TotalRSUs(rows); got != 4997 {
		t.Errorf("TotalRSUs = %d, want 4997", got)
	}
}

func TestPlanRSUsFromNetworkApproximatesStats(t *testing.T) {
	net, err := BuildNetwork(BuildConfig{Scale: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fromNet := PlanRSUsFromNetwork(net, 0)
	fromStats := PlanRSUsFromStats(ShenzhenRoadStats(), 0)
	byType := make(map[RoadType]RSUPlanRow, len(fromStats))
	for _, r := range fromStats {
		byType[r.Type] = r
	}
	roads := 0
	for _, r := range fromNet {
		roads += r.RoadCount
	}
	var shares float64
	for _, r := range fromNet {
		want := byType[r.Type]
		if r.RoadCount != want.RoadCount {
			t.Errorf("%v: road count %d, want %d", r.Type, r.RoadCount, want.RoadCount)
		}
		// The network row's density is its share of road count, which
		// the published column matches to within half a point.
		if share := float64(r.RoadCount) / float64(roads); r.DensityShare != share {
			t.Errorf("%v: density %v, want the count share %v", r.Type, r.DensityShare, share)
		}
		if math.Abs(r.DensityShare-want.DensityShare) > 0.005 {
			t.Errorf("%v: density %.4f, published %.4f", r.Type, r.DensityShare, want.DensityShare)
		}
		shares += r.DensityShare
		// Sampled totals should be within 2.5x of the aggregate plan
		// (lognormal tails make per-seed variation large for skewed
		// classes).
		lo, hi := float64(want.RSUs)/2.5, float64(want.RSUs)*2.5
		if float64(r.RSUs) < lo || float64(r.RSUs) > hi {
			t.Errorf("%v: RSUs from network = %d, want within [%.0f, %.0f]", r.Type, r.RSUs, lo, hi)
		}
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("density shares sum to %v, want 1", shares)
	}
}

func TestPlaceInfrastructureAndSpacing(t *testing.T) {
	net, err := BuildNetwork(BuildConfig{Scale: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	placement := PlaceInfrastructure(net, 245, 120, rng.NormFloat64)
	st := SpacingFromPlacement(TrafficLight, placement)
	if st.Count == 0 {
		t.Fatal("no infrastructure placed")
	}
	if math.Abs(st.AvgM-245) > 40 {
		t.Errorf("avg spacing %.1f, want ~245 (Table VI traffic lights)", st.AvgM)
	}
	if st.P75M < st.AvgM*0.8 {
		t.Errorf("p75 %.1f implausibly below mean %.1f", st.P75M, st.AvgM)
	}
	if st.MaxM < st.P75M {
		t.Errorf("max %.1f < p75 %.1f", st.MaxM, st.P75M)
	}
	if st.Kind != "traffic_light" {
		t.Errorf("kind = %q", st.Kind)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		p50 := percentile(xs, 0.5)
		p75 := percentile(xs, 0.75)
		return percentile(xs, 0) == xs[0] &&
			percentile(xs, 1) == xs[len(xs)-1] &&
			p50 <= p75 &&
			p50 >= xs[0] && p75 <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-9 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if math.Abs(std-2) > 1e-9 {
		t.Errorf("std = %v, want 2", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Errorf("meanStd(nil) = %v, %v", m, s)
	}
}

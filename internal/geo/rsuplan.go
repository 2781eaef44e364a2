package geo

import (
	"math"
	"sort"
)

// DefaultRSUCoverageMeters is the road length covered by one RSU in the
// paper's deployment plan. Table V is consistent with one RSU per 1,000 m
// of frequently-used road (DSRC range of ~500 m covering both directions).
const DefaultRSUCoverageMeters = 1000

// RSUPlanRow is one row of the Table V reproduction: the RSU deployment
// required for one road class.
type RSUPlanRow struct {
	Type RoadType
	// DensityShare is the class's density column. A row from the
	// aggregate statistics carries the published figure; a row from a
	// network carries the class's share of road count, RoadCount over the
	// network's total, which is what the published figure equals for nine
	// of the ten classes.
	DensityShare float64
	RoadCount    int
	MeanLengthM  float64
	StdLengthM   float64
	RSUs         int
}

// PlanRSUsFromStats reproduces Table V directly from aggregate road
// statistics: the number of RSUs per class is the total class road length
// divided by the per-RSU coverage. coverageMeters <= 0 selects
// DefaultRSUCoverageMeters.
func PlanRSUsFromStats(stats []RoadClassStats, coverageMeters float64) []RSUPlanRow {
	if coverageMeters <= 0 {
		coverageMeters = DefaultRSUCoverageMeters
	}
	rows := make([]RSUPlanRow, 0, len(stats))
	for _, st := range stats {
		total := float64(st.Count) * st.MeanLengthM
		rows = append(rows, RSUPlanRow{
			Type:         st.Type,
			DensityShare: st.DensityShare,
			RoadCount:    st.Count,
			MeanLengthM:  st.MeanLengthM,
			StdLengthM:   st.StdLengthM,
			RSUs:         int(math.Floor(total / coverageMeters)),
		})
	}
	return rows
}

// PlanRSUsFromNetwork computes the same plan from an actual (synthetic)
// network by measuring the generated segments, demonstrating that the
// sampled network reproduces the aggregate plan.
func PlanRSUsFromNetwork(net *Network, coverageMeters float64) []RSUPlanRow {
	if coverageMeters <= 0 {
		coverageMeters = DefaultRSUCoverageMeters
	}
	var rows []RSUPlanRow
	roads := 0
	lengths := make(map[RoadType][]float64)
	for _, t := range AllRoadTypes() {
		for _, s := range net.SegmentsOfType(t) {
			lengths[t] = append(lengths[t], s.LengthMeters())
		}
		roads += len(lengths[t])
	}
	for _, t := range AllRoadTypes() {
		ls := lengths[t]
		if len(ls) == 0 {
			continue
		}
		mean, std := meanStd(ls)
		total := mean * float64(len(ls))
		rows = append(rows, RSUPlanRow{
			Type:         t,
			DensityShare: float64(len(ls)) / float64(roads),
			RoadCount:    len(ls),
			MeanLengthM:  mean,
			StdLengthM:   std,
			RSUs:         int(math.Floor(total / coverageMeters)),
		})
	}
	return rows
}

// TotalRSUs sums the RSUs column of a plan.
func TotalRSUs(rows []RSUPlanRow) int {
	var total int
	for _, r := range rows {
		total += r.RSUs
	}
	return total
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(xs)))
	return mean, std
}

// SpacingStats summarises the distances between consecutive roadside
// infrastructure elements along roads (the Table VI reproduction).
type SpacingStats struct {
	Kind  string
	Count int
	AvgM  float64
	StdM  float64
	P75M  float64
	MaxM  float64
}

// InfrastructureKind identifies a class of existing roadside infrastructure
// that an edge node could be co-located with.
type InfrastructureKind int

// Infrastructure kinds considered by the paper's feasibility study.
const (
	TrafficLight InfrastructureKind = iota + 1
	LampPole
)

// String implements fmt.Stringer.
func (k InfrastructureKind) String() string {
	switch k {
	case TrafficLight:
		return "traffic_light"
	case LampPole:
		return "lamp_pole"
	default:
		return "infrastructure"
	}
}

// PlaceInfrastructure lays infrastructure elements along every segment of
// the network with the given mean spacing (jittered by the supplied jitter
// function, typically rng.NormFloat64), returning the element positions
// ordered along each road. Used to regenerate Table VI.
func PlaceInfrastructure(net *Network, meanSpacingM, jitterStdM float64, jitter func() float64) map[SegmentID][]float64 {
	out := make(map[SegmentID][]float64)
	for _, s := range net.AllSegments() {
		var at float64
		var marks []float64
		for {
			step := meanSpacingM + jitterStdM*jitter()
			if step < 10 {
				step = 10
			}
			at += step
			if at > s.LengthMeters() {
				break
			}
			marks = append(marks, at)
		}
		if len(marks) > 0 {
			out[s.ID] = marks
		}
	}
	return out
}

// SpacingFromPlacement computes Table VI-style spacing statistics from a
// placement map produced by PlaceInfrastructure.
func SpacingFromPlacement(kind InfrastructureKind, placement map[SegmentID][]float64) SpacingStats {
	var gaps []float64
	var count int
	ids := make([]SegmentID, 0, len(placement))
	for id := range placement {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		marks := placement[id]
		count += len(marks)
		prev := 0.0
		for _, m := range marks {
			gaps = append(gaps, m-prev)
			prev = m
		}
	}
	st := SpacingStats{Kind: kind.String(), Count: count}
	if len(gaps) == 0 {
		return st
	}
	st.AvgM, st.StdM = meanStd(gaps)
	sort.Float64s(gaps)
	st.P75M = percentile(gaps, 0.75)
	st.MaxM = gaps[len(gaps)-1]
	return st
}

// percentile returns the p-quantile (0..1) of sorted xs by linear
// interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cad3/internal/geo"
	"cad3/internal/netem"
)

// RunTable5 reproduces Table V: the RSU deployment plan per road class,
// both from the paper's aggregate statistics and from a sampled synthetic
// network of the given scale.
func RunTable5(scale float64, seed int64) (fromStats, fromNetwork []geo.RSUPlanRow, err error) {
	fromStats = geo.PlanRSUsFromStats(geo.ShenzhenRoadStats(), 0)
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	fromNetwork = geo.PlanRSUsFromNetwork(net, 0)
	return fromStats, fromNetwork, nil
}

// FormatTable5 renders the Table V reproduction.
func FormatTable5(rows []geo.RSUPlanRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %8s %8s %10s %10s %8s\n", "road", "density", "#roads", "mean(m)", "std(m)", "RSUs")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %7.1f%% %8d %10.0f %10.0f %8d\n",
			r.Type, r.DensityShare*100, r.RoadCount, r.MeanLengthM, r.StdLengthM, r.RSUs)
	}
	fmt.Fprintf(&sb, "%-16s %8s %8s %10s %10s %8d\n", "total", "", "", "", "", geo.TotalRSUs(rows))
	return sb.String()
}

// RunTable6 reproduces Table VI: spacing statistics of existing roadside
// infrastructure the edge nodes could co-locate with. The mean spacings
// come from the paper (traffic lights ~245 m; lamp poles ~83 m).
func RunTable6(scale float64, seed int64) ([]geo.SpacingStats, error) {
	net, err := geo.BuildNetwork(geo.BuildConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	lights := geo.PlaceInfrastructure(net, 245, 150, rng.NormFloat64)
	lamps := geo.PlaceInfrastructure(net, 83, 36, rng.NormFloat64)
	return []geo.SpacingStats{
		geo.SpacingFromPlacement(geo.TrafficLight, lights),
		geo.SpacingFromPlacement(geo.LampPole, lamps),
	}, nil
}

// FormatTable6 renders the Table VI reproduction.
func FormatTable6(rows []geo.SpacingStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %9s %9s %9s %9s\n", "RSU", "count", "avg(m)", "std(m)", "p75(m)", "max(m)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %8d %9.1f %9.1f %9.1f %9.1f\n",
			r.Kind, r.Count, r.AvgM, r.StdM, r.P75M, r.MaxM)
	}
	return sb.String()
}

// MACRow is one channel-access evaluation point (§VI-D1 and §VII-B).
type MACRow struct {
	Vehicles   int
	MCS        netem.MCS
	AccessTime time.Duration
	FitsPeriod bool
}

// RunMACAnalysis evaluates Equation 5 for the paper's cases: 256 vehicles
// at MCS 3 and MCS 8 (§VI-D1, 92.62 / 54.28 ms) and 400 vehicles at MCS 8
// (§VII-B, < 85 ms), plus the full vehicle sweep.
func RunMACAnalysis() ([]MACRow, error) {
	cases := []struct {
		n   int
		mcs netem.MCS
	}{
		{8, netem.MCS3}, {16, netem.MCS3}, {32, netem.MCS3}, {64, netem.MCS3},
		{128, netem.MCS3}, {256, netem.MCS3},
		{256, netem.MCS8},
		{400, netem.MCS8},
	}
	rows := make([]MACRow, 0, len(cases))
	for _, c := range cases {
		fits, t, err := netem.FitsReportingPeriod(c.n, netem.ReportBytes, c.mcs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MACRow{Vehicles: c.n, MCS: c.mcs, AccessTime: t, FitsPeriod: fits})
	}
	return rows, nil
}

// FormatMACRows renders the Equation 5 evaluation.
func FormatMACRows(rows []MACRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %-18s %12s %14s\n", "vehicles", "MCS", "access-time", "fits 100 ms")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d %-18s %12s %14v\n",
			r.Vehicles, r.MCS, r.AccessTime.Round(10*time.Microsecond), r.FitsPeriod)
	}
	return sb.String()
}

// CityScale reproduces the paper's scale arithmetic (§II-B, §VI-D2): the
// centralized load of city-wide telemetry versus the per-edge load, and
// the road-trunk-based system capacity.
type CityScale struct {
	// ConcurrentVehicles at peak (paper: >2M in Shenzhen's morning rush).
	ConcurrentVehicles int
	// CentralizedBytesPerSec is the aggregate cloud ingest load.
	CentralizedBytesPerSec float64
	// PerEdgeVehicles / PerEdgeBytesPerSec is the per-RSU load at the
	// 256-vehicle cap.
	PerEdgeVehicles       int
	PerEdgeBytesPerSec    float64
	PerEdgeBandwidthShare float64 // fraction of the 27 Mb/s DSRC channel
	// RoadTrunks and SystemCapacity: one RSU per trunk (paper: 51,129
	// trunks -> ~13M concurrent road users).
	RoadTrunks     int
	SystemCapacity int
}

// ShenzhenRoadTrunks is the paper's trunk count for Shenzhen.
const ShenzhenRoadTrunks = 51_129

// RunCityScale evaluates the arithmetic for the given peak vehicle count.
func RunCityScale(concurrentVehicles int) CityScale {
	if concurrentVehicles <= 0 {
		concurrentVehicles = 2_000_000
	}
	perVehicleBps := float64(netem.ReportBytes * netem.ReportHz) // bytes/s
	perEdge := 256
	perEdgeLoad := float64(perEdge) * perVehicleBps
	// Wire rate includes framing overhead; ~20 kb/s per vehicle as
	// measured in Figure 6c.
	perEdgeBits := perEdgeLoad * 8 * 1.25
	return CityScale{
		ConcurrentVehicles:     concurrentVehicles,
		CentralizedBytesPerSec: float64(concurrentVehicles) * perVehicleBps,
		PerEdgeVehicles:        perEdge,
		PerEdgeBytesPerSec:     perEdgeLoad,
		PerEdgeBandwidthShare:  perEdgeBits / netem.DSRCBandwidthBps,
		RoadTrunks:             ShenzhenRoadTrunks,
		SystemCapacity:         ShenzhenRoadTrunks * perEdge,
	}
}

// FormatCityScale renders the scale analysis.
func FormatCityScale(c CityScale) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "concurrent vehicles:        %d\n", c.ConcurrentVehicles)
	fmt.Fprintf(&sb, "centralized ingest:         %.2f GB/s\n", c.CentralizedBytesPerSec/1e9)
	fmt.Fprintf(&sb, "per-edge vehicles:          %d\n", c.PerEdgeVehicles)
	fmt.Fprintf(&sb, "per-edge ingest:            %.0f KB/s\n", c.PerEdgeBytesPerSec/1e3)
	fmt.Fprintf(&sb, "per-edge DSRC share:        %.2f (paper: ~1/5)\n", c.PerEdgeBandwidthShare)
	fmt.Fprintf(&sb, "road trunks:                %d\n", c.RoadTrunks)
	fmt.Fprintf(&sb, "system capacity (vehicles): %d\n", c.SystemCapacity)
	return sb.String()
}

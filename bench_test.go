// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI). Each benchmark prints its rows once (the series the
// paper reports) and exposes the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. EXPERIMENTS.md records paper-vs-
// measured values.
package cad3_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cad3/internal/experiments"
	"cad3/internal/geo"
	"cad3/internal/netem"
)

// Shared fixtures, built once per benchmark binary.
var (
	benchScenarioOnce sync.Once
	benchScenario     *experiments.Scenario
	benchScenarioErr  error

	benchInputsOnce sync.Once
	benchLatCfg     experiments.LatencyConfig
	benchInputsErr  error

	printOnce sync.Map
)

func scenario(b *testing.B) *experiments.Scenario {
	b.Helper()
	benchScenarioOnce.Do(func() {
		benchScenario, benchScenarioErr = experiments.BuildScenario(experiments.ScenarioConfig{Cars: 500, Seed: 42})
	})
	if benchScenarioErr != nil {
		b.Fatal(benchScenarioErr)
	}
	return benchScenario
}

func latencyBase(b *testing.B) experiments.LatencyConfig {
	b.Helper()
	benchInputsOnce.Do(func() {
		pool, det, err := experiments.BuildLatencyInputs(42)
		if err != nil {
			benchInputsErr = err
			return
		}
		benchLatCfg = experiments.LatencyConfig{
			Duration: 2 * time.Second,
			Seed:     42,
			Records:  pool,
			Detector: det,
		}
	})
	if benchInputsErr != nil {
		b.Fatal(benchInputsErr)
	}
	return benchLatCfg
}

// printRows prints an experiment's output once per process.
func printRows(name, out string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n=== %s ===\n%s", name, out)
	}
}

// BenchmarkFigure2SpeedProfiles regenerates the Figure 2 speed-profile
// series (motorway vs motorway link, weekday vs weekend, by hour).
func BenchmarkFigure2SpeedProfiles(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var series []experiments.SpeedProfileSeries
	for i := 0; i < b.N; i++ {
		series = experiments.RunFigure2(sc)
	}
	b.StopTimer()
	printRows("Figure 2: speed profiles", experiments.FormatFigure2(series))
}

// BenchmarkTable3DatasetStats regenerates the Table III dataset
// statistics after filtering.
func BenchmarkTable3DatasetStats(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows interface{ Len() int }
	_ = rows
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.FormatTable3(experiments.RunTable3(sc))
	}
	b.StopTimer()
	printRows("Table III: dataset statistics", out)
}

// BenchmarkFigure6aLatencyScaling regenerates the latency-vs-vehicles
// series (Tx / processing / total, 8..256 vehicles) on the discrete-event
// DSRC pipeline.
func BenchmarkFigure6aLatencyScaling(b *testing.B) {
	base := latencyBase(b)
	counts := []int{8, 16, 32, 64, 128, 256}
	b.ResetTimer()
	var results []*experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.RunLatencyScaling(counts, base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	last := results[len(results)-1]
	b.ReportMetric(float64(last.Report.Total.Mean.Microseconds())/1000, "ms-total@256")
	printRows("Figure 6a/6c: latency and bandwidth scaling", experiments.FormatLatencyResults(results))
}

// BenchmarkFigure6bDisseminationLatency regenerates the 5-RSU
// dissemination-latency comparison.
func BenchmarkFigure6bDisseminationLatency(b *testing.B) {
	base := latencyBase(b)
	cfg := experiments.MultiRSUConfig{
		MotorwayRSUs:   4,
		VehiclesPerRSU: 128,
		Duration:       2 * time.Second,
		Seed:           42,
		Records:        base.Records,
		Detector:       base.Detector,
	}
	b.ResetTimer()
	var results []experiments.RSUResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.RunMultiRSU(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(results[0].Dissemination.Mean.Microseconds())/1000, "ms-dissem-link")
	printRows("Figure 6b/6d: multi-RSU dissemination and bandwidth", experiments.FormatRSUResults(results))
}

// BenchmarkFigure6cBandwidth isolates the bandwidth-vs-vehicles series
// (per-vehicle ~20 kb/s; total ~5 Mb/s at 256 << 27 Mb/s DSRC).
func BenchmarkFigure6cBandwidth(b *testing.B) {
	base := latencyBase(b)
	base.Vehicles = 256
	b.ResetTimer()
	var res *experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunLatency(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.PerVehicleBps/1000, "kbps-per-vehicle")
	b.ReportMetric(res.TotalBps/1e6, "mbps-total")
}

// BenchmarkFigure6dPerRSUBandwidth isolates the per-RSU bandwidth bars
// (the link RSU slightly higher from CO-DATA).
func BenchmarkFigure6dPerRSUBandwidth(b *testing.B) {
	base := latencyBase(b)
	cfg := experiments.MultiRSUConfig{
		MotorwayRSUs:   4,
		VehiclesPerRSU: 64,
		Duration:       time.Second,
		Seed:           43,
		Records:        base.Records,
		Detector:       base.Detector,
	}
	b.ResetTimer()
	var results []experiments.RSUResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.RunMultiRSU(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(results[0].TotalBps()/1e6, "mbps-link-rsu")
	b.ReportMetric(results[1].TotalBps()/1e6, "mbps-mw-rsu")
}

// BenchmarkFigure7ModelComparison regenerates the F1/accuracy comparison
// of centralized vs AD3 vs CAD3.
func BenchmarkFigure7ModelComparison(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows []experiments.ModelRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunModelComparison(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.F1, "f1-"+r.Model)
	}
	printRows("Figure 7 + Table IV: model comparison", experiments.FormatModelRows(rows))
}

// BenchmarkFigure8MesoscopicTrip regenerates the driver-trip timeline.
func BenchmarkFigure8MesoscopicTrip(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var res *experiments.MesoscopicResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunMesoscopicTimeline(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Accuracy["CAD3"], "trip-acc-CAD3")
	b.ReportMetric(res.Accuracy["AD3"], "trip-acc-AD3")
	printRows("Figure 8: mesoscopic timeline", experiments.FormatMesoscopic(res))
}

// BenchmarkTable4AccidentEstimation regenerates the TP/FN/E(Lambda)
// table (part of the model comparison; reported separately for the
// Table IV metric).
func BenchmarkTable4AccidentEstimation(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows []experiments.ModelRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunModelComparison(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.ExpectedAccidents, "ELambda-"+r.Model)
	}
}

// BenchmarkTable5RSUPlanning regenerates the RSU deployment plan.
func BenchmarkTable5RSUPlanning(b *testing.B) {
	var fromStats, fromNet []geo.RSUPlanRow
	for i := 0; i < b.N; i++ {
		var err error
		fromStats, fromNet, err = experiments.RunTable5(1.0, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(geo.TotalRSUs(fromStats)), "rsus-from-stats")
	b.ReportMetric(float64(geo.TotalRSUs(fromNet)), "rsus-from-network")
	printRows("Table V: RSU deployment plan (from paper statistics)", experiments.FormatTable5(fromStats))
	printRows("Table V (from sampled synthetic network)", experiments.FormatTable5(fromNet))
}

// BenchmarkTable6InfrastructureSpacing regenerates the roadside
// infrastructure spacing statistics.
func BenchmarkTable6InfrastructureSpacing(b *testing.B) {
	var rows []geo.SpacingStats
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable6(0.2, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(rows[0].AvgM, "m-traffic-light-avg")
	printRows("Table VI: infrastructure spacing", experiments.FormatTable6(rows))
}

// BenchmarkMACAccessTime evaluates Equation 5 (channel-access time; §VI-D1
// and the §VII-B dense-deployment case).
func BenchmarkMACAccessTime(b *testing.B) {
	var rows []experiments.MACRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunMACAnalysis()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Vehicles == 256 {
			b.ReportMetric(float64(r.AccessTime.Microseconds())/1000,
				fmt.Sprintf("ms-access-256@MCS%d", int(r.MCS)))
		}
	}
	printRows("Equation 5: MAC channel-access time", experiments.FormatMACRows(rows))
}

// BenchmarkCityScaleCapacity evaluates the §II-B / §VI-D2 scale
// arithmetic.
func BenchmarkCityScaleCapacity(b *testing.B) {
	var c experiments.CityScale
	for i := 0; i < b.N; i++ {
		c = experiments.RunCityScale(2_000_000)
	}
	b.StopTimer()
	b.ReportMetric(c.CentralizedBytesPerSec/1e9, "GBps-centralized")
	b.ReportMetric(float64(c.SystemCapacity)/1e6, "Mvehicles-capacity")
	printRows("City-scale capacity", experiments.FormatCityScale(c))
}

// BenchmarkAblationCollabWeight sweeps Equation 1's fusion weight.
func BenchmarkAblationCollabWeight(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows []experiments.WeightRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunCollabWeightSweep(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Ablation: collaboration weight", experiments.FormatWeightRows(rows))
}

// BenchmarkAblationSummaryDepth sweeps the summary depth (full-trip mean
// vs last-k).
func BenchmarkAblationSummaryDepth(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows []experiments.DepthRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSummaryDepthSweep(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Ablation: summary depth", experiments.FormatDepthRows(rows))
}

// BenchmarkAblationDTFeatures ablates the Decision Tree feature set.
func BenchmarkAblationDTFeatures(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows []experiments.FeatureRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunDTFeatureAblation(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Ablation: decision-tree features", experiments.FormatFeatureRows(rows))
}

// BenchmarkAblationBatchInterval sweeps the micro-batch window.
func BenchmarkAblationBatchInterval(b *testing.B) {
	base := latencyBase(b)
	base.Vehicles = 64
	base.Duration = time.Second
	b.ResetTimer()
	var rows []experiments.IntervalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunBatchIntervalSweep(base, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Ablation: micro-batch interval", experiments.FormatIntervalRows(rows))
}

// BenchmarkAblationPollInterval sweeps the consumer poll period.
func BenchmarkAblationPollInterval(b *testing.B) {
	base := latencyBase(b)
	base.Vehicles = 64
	base.Duration = time.Second
	b.ResetTimer()
	var rows []experiments.IntervalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunPollIntervalSweep(base, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Ablation: consumer poll interval", experiments.FormatIntervalRows(rows))
}

// BenchmarkExtensionDetectorComparison scores the standalone detector
// algorithms (the paper's future-work direction).
func BenchmarkExtensionDetectorComparison(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var rows []experiments.DetectorRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunDetectorComparison(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Extension: detector algorithms", experiments.FormatDetectorRows(rows))
}

// BenchmarkExtensionMobileHandover drives vehicles along the corridor
// geometry through a live 2-RSU cluster with automatic handover.
func BenchmarkExtensionMobileHandover(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var res *experiments.MobilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunMobileHandover(sc, experiments.MobilityConfig{Vehicles: 24, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.AggressiveWarnRate, "warn-rate-aggressive")
	b.ReportMetric(res.NormalWarnRate, "warn-rate-normal")
	printRows("Extension: live mobility", experiments.FormatMobility(res))
}

// BenchmarkExtensionLossImpact measures delivery and abnormal-coverage
// ratios across the coverage radius under the distance-dependent loss
// model.
func BenchmarkExtensionLossImpact(b *testing.B) {
	base := latencyBase(b)
	cfg := experiments.LossConfig{Seed: 42, Records: base.Records, Detector: base.Detector}
	b.ResetTimer()
	var bands []experiments.LossBand
	for i := 0; i < b.N; i++ {
		var err error
		bands, err = experiments.RunLossImpact(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(bands[0].DeliveryRatio(), "delivery-near")
	b.ReportMetric(bands[len(bands)-1].DeliveryRatio(), "delivery-far")
	printRows("Extension: frame loss vs distance", experiments.FormatLossBands(bands))
}

// BenchmarkExtensionInterference runs the dense-deployment channel study.
func BenchmarkExtensionInterference(b *testing.B) {
	var res *experiments.InterferenceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunInterference(experiments.InterferenceConfig{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.NaiveConflicts), "conflicts-naive")
	b.ReportMetric(float64(res.ManagedConflicts), "conflicts-managed")
	printRows("Extension: interference management", experiments.FormatInterference(res))
}

// BenchmarkExtensionBackhaul samples inter-RSU link delays.
func BenchmarkExtensionBackhaul(b *testing.B) {
	var rows []experiments.BackhaulRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunBackhaulAnalysis(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printRows("Extension: backhaul links", experiments.FormatBackhaulRows(rows))
}

// BenchmarkExtensionChainMobility drives vehicles down a 4-hop RSU chain
// with carried-on summaries.
func BenchmarkExtensionChainMobility(b *testing.B) {
	sc := scenario(b)
	b.ResetTimer()
	var res *experiments.ChainResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunChainMobility(sc, experiments.ChainConfig{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.FinalAggressiveWarnRate, "final-warn-aggressive")
	b.ReportMetric(res.FinalNormalWarnRate, "final-warn-normal")
	printRows("Extension: multi-hop summary chain", experiments.FormatChain(res))
}

// BenchmarkDSRCChannel256 measures the raw discrete-event channel model:
// one full 10 Hz reporting round of 256 vehicles.
func BenchmarkDSRCChannel256(b *testing.B) {
	start := time.Date(2016, 7, 4, 8, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		m, err := netem.NewMedium(netem.MediumConfig{MCS: netem.MCS3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < 256; v++ {
			if _, err := m.Transmit("v", netem.ReportBytes, start); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/netem"
)

var (
	scOnce sync.Once
	scVal  *Scenario
	scErr  error
)

func testScenario(t *testing.T) *Scenario {
	t.Helper()
	scOnce.Do(func() { scVal, scErr = BuildScenario(ScenarioConfig{Cars: 400, Seed: 77}) })
	if scErr != nil {
		t.Fatal(scErr)
	}
	return scVal
}

func TestScenarioShape(t *testing.T) {
	sc := testScenario(t)
	if len(sc.Train) == 0 || len(sc.Test) == 0 || len(sc.TestLink) < 100 {
		t.Fatalf("scenario sizes: train=%d test=%d link=%d", len(sc.Train), len(sc.Test), len(sc.TestLink))
	}
	if len(sc.Summaries) == 0 {
		t.Fatal("no evaluation summaries")
	}
	if sc.Net.Segment(CorridorMotorwayID) == nil || sc.Net.Segment(CorridorLinkID) == nil {
		t.Fatal("corridor segments missing")
	}
}

func TestModelComparisonOrdering(t *testing.T) {
	sc := testScenario(t)
	rows, err := RunModelComparison(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ModelRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	c, a, x := byName["Centralized"], byName["AD3"], byName["CAD3"]
	t.Logf("\n%s", FormatModelRows(rows))
	if !(x.F1 > a.F1 && a.F1 > c.F1) {
		t.Errorf("F1 ordering violated: CAD3 %.4f, AD3 %.4f, centralized %.4f", x.F1, a.F1, c.F1)
	}
	if !(x.FNRate < a.FNRate && a.FNRate < c.FNRate) {
		t.Errorf("FN ordering violated: CAD3 %.4f, AD3 %.4f, centralized %.4f", x.FNRate, a.FNRate, c.FNRate)
	}
	if !(x.ExpectedAccidents < a.ExpectedAccidents && a.ExpectedAccidents < c.ExpectedAccidents) {
		t.Errorf("E(Lambda) ordering violated: %.1f / %.1f / %.1f",
			x.ExpectedAccidents, a.ExpectedAccidents, c.ExpectedAccidents)
	}
	if FormatModelRows(rows) == "" {
		t.Error("empty format")
	}
}

func TestMesoscopicTimeline(t *testing.T) {
	sc := testScenario(t)
	res, err := RunMesoscopicTimeline(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("empty timeline")
	}
	out := FormatMesoscopic(res)
	t.Logf("\n%s", out)
	if !strings.Contains(out, "CAD3") || !strings.Contains(out, "truth") {
		t.Error("format missing strips")
	}
	// Figure 8's core claim is about missed abnormal points: on the
	// aggressive driver's trip CAD3 must miss no more abnormal records
	// than AD3, which must miss no more than centralized.
	fn := func(pick func(TimelineRow) int) int {
		n := 0
		for _, pt := range res.Timeline {
			if pt.Truth == 0 && pick(pt) == 1 { // abnormal waved through
				n++
			}
		}
		return n
	}
	fnC := fn(func(r TimelineRow) int { return r.Centralized })
	fnA := fn(func(r TimelineRow) int { return r.AD3 })
	fnX := fn(func(r TimelineRow) int { return r.CAD3 })
	if fnX > fnA || fnA > fnC {
		t.Errorf("trip FN ordering violated: CAD3=%d AD3=%d centralized=%d", fnX, fnA, fnC)
	}
}

func TestRunLatencyScalingFigure6a(t *testing.T) {
	pool, det, err := BuildLatencyInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunLatencyScaling([]int{8, 64}, LatencyConfig{
		Duration: 2 * time.Second,
		Seed:     5,
		Records:  pool,
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatLatencyResults(results))
	for _, r := range results {
		if r.Warnings == 0 {
			t.Fatalf("%d vehicles: no warnings disseminated", r.Vehicles)
		}
		total := r.Report.Total.Mean
		if total <= 0 || total > 60*time.Millisecond {
			t.Errorf("%d vehicles: total latency %v, want (0, 60ms]", r.Vehicles, total)
		}
		// Paper: ~20 kb/s per vehicle.
		if r.PerVehicleBps < 10_000 || r.PerVehicleBps > 40_000 {
			t.Errorf("%d vehicles: per-vehicle rate %.0f b/s, want ~20 kb/s", r.Vehicles, r.PerVehicleBps)
		}
	}
	// More vehicles -> more total bandwidth and >= latency.
	if results[1].TotalBps <= results[0].TotalBps {
		t.Error("total bandwidth should grow with vehicles")
	}
	if results[1].Report.Processing.Mean <= results[0].Report.Processing.Mean {
		t.Error("processing time should grow with vehicles")
	}
}

// TestLatencyLiveTraceMatchesOffline pins the wire-trace measurement path
// against the offline reconstruction: every warning is measured twice —
// once through the arrivals/pending bookkeeping maps, once through the
// TraceContext stamped into the payloads in flight — and the two paths
// must agree. The live path truncates the detection instant to the
// warning's millisecond DetectedTsMs field only on the offline side, so
// per-component means may differ by strictly less than 1 ms.
func TestLatencyLiveTraceMatchesOffline(t *testing.T) {
	pool, det, err := BuildLatencyInputs(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLatency(LatencyConfig{
		Vehicles: 16,
		Duration: 2 * time.Second,
		Seed:     9,
		Records:  pool,
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warnings == 0 {
		t.Fatal("no warnings disseminated")
	}
	// Every offline-scored warning must also complete its trace.
	if int64(res.LiveTraced) != res.Warnings {
		t.Fatalf("LiveTraced = %d, Warnings = %d: trace contexts lost in flight",
			res.LiveTraced, res.Warnings)
	}
	within := func(name string, live, offline time.Duration) {
		diff := live - offline
		if diff < 0 {
			diff = -diff
		}
		if diff >= time.Millisecond {
			t.Errorf("%s mean: live %v vs offline %v (diff %v, want < 1ms)",
				name, live, offline, diff)
		}
	}
	within("tx", res.Live.Tx.Mean, res.Report.Tx.Mean)
	within("queue", res.Live.Queue.Mean, res.Report.Queue.Mean)
	within("processing", res.Live.Processing.Mean, res.Report.Processing.Mean)
	within("dissemination", res.Live.Dissemination.Mean, res.Report.Dissemination.Mean)
	within("total", res.Live.Total.Mean, res.Report.Total.Mean)
	// Tx uses the same two instants on both paths; the only divergence is
	// the stamps' truncation to whole microseconds.
	if diff := res.Live.Tx.Mean - res.Report.Tx.Mean; diff < -2*time.Microsecond || diff > 2*time.Microsecond {
		t.Errorf("tx means differ by %v: live %v offline %v (want within stamp truncation)",
			diff, res.Live.Tx.Mean, res.Report.Tx.Mean)
	}
}

func TestRunLatency256UnderPaperBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("256-vehicle DES run in -short mode")
	}
	pool, det, err := BuildLatencyInputs(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLatency(LatencyConfig{
		Vehicles: 256,
		Duration: 2 * time.Second,
		Seed:     6,
		Records:  pool,
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("256 vehicles: total=%v tx=%v queue=%v proc=%v diss=%v, %.2f Mb/s",
		res.Report.Total.Mean, res.Report.Tx.Mean, res.Report.Queue.Mean,
		res.Report.Processing.Mean, res.Report.Dissemination.Mean, res.TotalBps/1e6)
	// The paper's headline: < 50 ms end-to-end at 256 vehicles, ~5 Mb/s
	// total, well under the 27 Mb/s DSRC capacity.
	if res.Report.Total.Mean > 60*time.Millisecond {
		t.Errorf("total latency %v exceeds the 60 ms envelope (paper: ~48 ms on Ethernet Tx; we model DSRC MAC Tx)", res.Report.Total.Mean)
	}
	if res.TotalBps > 8e6 {
		t.Errorf("total bandwidth %.2f Mb/s, paper reports ~5", res.TotalBps/1e6)
	}
	if res.TotalBps >= netem.DSRCBandwidthBps {
		t.Error("bandwidth exceeds DSRC capacity")
	}
}

func TestRunMultiRSUFigure6bd(t *testing.T) {
	pool, det, err := BuildLatencyInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunMultiRSU(MultiRSUConfig{
		MotorwayRSUs:   2,
		VehiclesPerRSU: 32,
		Duration:       2 * time.Second,
		Seed:           7,
		Records:        pool,
		Detector:       det,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatRSUResults(results))
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	link := results[0]
	if !link.IsLink {
		t.Fatal("first result should be the link RSU")
	}
	if link.CoDataBps <= 0 {
		t.Error("link RSU should receive CO-DATA traffic")
	}
	for _, r := range results[1:] {
		if r.CoDataBps != 0 {
			t.Errorf("%s should not receive CO-DATA", r.Name)
		}
		// Figure 6d: the link RSU's total is slightly higher.
		if link.TotalBps() <= r.UplinkBps {
			t.Errorf("link total %.0f should exceed %s uplink %.0f", link.TotalBps(), r.Name, r.UplinkBps)
		}
	}
	for _, r := range results {
		if r.Warnings == 0 {
			t.Errorf("%s disseminated no warnings", r.Name)
		}
		// Figure 6b: dissemination ~17 ms (10 ms poll + 7.2 +- 4.4).
		if r.Dissemination.Mean < 5*time.Millisecond || r.Dissemination.Mean > 30*time.Millisecond {
			t.Errorf("%s dissemination %v, want ~17 ms", r.Name, r.Dissemination.Mean)
		}
	}
}

func TestRunMACAnalysis(t *testing.T) {
	rows, err := RunMACAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatMACRows(rows))
	var mcs3At256, mcs8At256, mcs8At400 MACRow
	for _, r := range rows {
		switch {
		case r.Vehicles == 256 && r.MCS == netem.MCS3:
			mcs3At256 = r
		case r.Vehicles == 256 && r.MCS == netem.MCS8:
			mcs8At256 = r
		case r.Vehicles == 400 && r.MCS == netem.MCS8:
			mcs8At400 = r
		}
	}
	if mcs3At256.AccessTime <= mcs8At256.AccessTime {
		t.Error("MCS3 should be slower than MCS8")
	}
	if !mcs8At256.FitsPeriod {
		t.Error("256 vehicles @ MCS8 should fit the 100 ms period")
	}
	if mcs8At400.AccessTime > 85*time.Millisecond {
		t.Errorf("400 vehicles @ MCS8 = %v, paper says under 85 ms", mcs8At400.AccessTime)
	}
}

func TestRunTable5(t *testing.T) {
	fromStats, fromNet, err := RunTable5(0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if geo.TotalRSUs(fromStats) != 4997 {
		t.Errorf("stats total = %d", geo.TotalRSUs(fromStats))
	}
	if len(fromNet) == 0 {
		t.Error("empty network plan")
	}
	if FormatTable5(fromStats) == "" {
		t.Error("empty format")
	}
}

func TestRunTable6(t *testing.T) {
	rows, err := RunTable6(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	lights, lamps := rows[0], rows[1]
	if lights.AvgM < 180 || lights.AvgM > 320 {
		t.Errorf("traffic-light spacing %.1f, want ~245 (Table VI)", lights.AvgM)
	}
	if lamps.AvgM >= lights.AvgM {
		t.Error("lamp poles should be denser than traffic lights")
	}
	if lamps.Count <= lights.Count {
		t.Error("lamp poles should outnumber traffic lights")
	}
	if FormatTable6(rows) == "" {
		t.Error("empty format")
	}
}

func TestRunCityScale(t *testing.T) {
	c := RunCityScale(2_000_000)
	// Paper §II-B: 2M vehicles at 200 B / 10 Hz = 4 GB/s centralized.
	if c.CentralizedBytesPerSec != 4e9 {
		t.Errorf("centralized = %.2e B/s, want 4e9", c.CentralizedBytesPerSec)
	}
	// Paper §VI-D2: 51,129 trunks x 256 vehicles ~= 13M capacity.
	if c.SystemCapacity < 13_000_000 || c.SystemCapacity > 13_200_000 {
		t.Errorf("capacity = %d, want ~13.1M", c.SystemCapacity)
	}
	if c.PerEdgeBandwidthShare <= 0 || c.PerEdgeBandwidthShare > 0.3 {
		t.Errorf("edge share = %.3f, paper says ~1/5", c.PerEdgeBandwidthShare)
	}
	if FormatCityScale(c) == "" {
		t.Error("empty format")
	}
	if d := RunCityScale(0); d.ConcurrentVehicles != 2_000_000 {
		t.Error("default vehicles not applied")
	}
}

func TestRunFigure2AndTable3(t *testing.T) {
	sc := testScenario(t)
	series := RunFigure2(sc)
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.RoadType == geo.Motorway && !s.Weekend {
			// Motorway weekday rush (8h) slower than late evening (22h)
			// in the generative model.
			if s.Model[8] >= s.Model[22] {
				t.Error("model rush-hour dip missing")
			}
		}
	}
	if FormatFigure2(series) == "" {
		t.Error("empty figure 2 format")
	}

	rows := RunTable3(sc)
	if len(rows) != 3 || rows[0].Region != "Shenzhen" {
		t.Fatalf("table 3 rows = %+v", rows)
	}
	if rows[0].Trajectories == 0 || rows[0].Cars == 0 {
		t.Error("empty city row")
	}
	if FormatTable3(rows) == "" {
		t.Error("empty table 3 format")
	}
}

// TestAblationSweeps runs the accuracy sweeps and holds each one's
// paper-default row (w = 0.5; the full [Hour, P_X, Class_NB] feature set)
// to Table IV's CAD3 row: a sweep that trains CAD3 differently from
// BuildScenario would not be ablating the model the tables report.
func TestAblationSweeps(t *testing.T) {
	sc := testScenario(t)
	models, err := RunModelComparison(sc)
	if err != nil {
		t.Fatal(err)
	}
	table := models[2]
	if table.Model != "CAD3" {
		t.Fatalf("third model row = %q", table.Model)
	}

	weights, err := RunCollabWeightSweep(sc, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatWeightRows(weights))
	if len(weights) != 3 {
		t.Fatalf("weight rows = %d", len(weights))
	}
	for _, w := range weights {
		if w.F1 <= 0 || w.F1 > 1 {
			t.Errorf("weight %.2f: F1 %.4f out of range", w.Weight, w.F1)
		}
	}
	if paper := weights[1]; paper.Weight != core.DefaultCollabWeight || paper.F1 != table.F1 || paper.FNRate != table.FNRate {
		t.Errorf("weight %.2f row F1 %.4f FN %.4f, want Table IV's CAD3 %.4f / %.4f",
			paper.Weight, paper.F1, paper.FNRate, table.F1, table.FNRate)
	}

	features, err := RunDTFeatureAblation(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFeatureRows(features))
	if len(features) != 5 {
		t.Fatalf("feature rows = %d", len(features))
	}
	full := features[0]
	if full.Features != "hour+pX+classNB" {
		t.Fatalf("first variant = %q", full.Features)
	}
	if full.F1 != table.F1 || full.FNRate != table.FNRate {
		t.Errorf("full feature set F1 %.4f FN %.4f, want Table IV's CAD3 %.4f / %.4f",
			full.F1, full.FNRate, table.F1, table.FNRate)
	}
}

func TestIntervalSweeps(t *testing.T) {
	pool, det, err := BuildLatencyInputs(8)
	if err != nil {
		t.Fatal(err)
	}
	base := LatencyConfig{Vehicles: 16, Duration: time.Second, Seed: 8, Records: pool, Detector: det}

	batch, err := RunBatchIntervalSweep(base, []time.Duration{25 * time.Millisecond, 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatIntervalRows(batch))
	if batch[1].QueueMean <= batch[0].QueueMean {
		t.Error("larger batch window should increase queue wait")
	}

	poll, err := RunPollIntervalSweep(base, []time.Duration{time.Millisecond, 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatIntervalRows(poll))
	if poll[1].DissMean <= poll[0].DissMean {
		t.Error("slower polling should increase dissemination latency")
	}
}

func TestLatencyValidation(t *testing.T) {
	pool, det, err := BuildLatencyInputs(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLatency(LatencyConfig{Records: pool, Detector: det}); err == nil {
		t.Error("want error for zero vehicles")
	}
	if _, err := RunLatency(LatencyConfig{Vehicles: 4, Detector: det}); err == nil {
		t.Error("want error for no records")
	}
	if _, err := RunLatency(LatencyConfig{Vehicles: 4, Records: pool}); err == nil {
		t.Error("want error for no detector")
	}
	if _, err := RunMultiRSU(MultiRSUConfig{}); err == nil {
		t.Error("want error for missing inputs")
	}
}

func TestRunMobileHandover(t *testing.T) {
	sc := testScenario(t)
	res, err := RunMobileHandover(sc, MobilityConfig{Vehicles: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatMobility(res))
	if res.Handovers != int64(res.Vehicles) {
		t.Errorf("handovers = %d, want %d (one per vehicle)", res.Handovers, res.Vehicles)
	}
	if res.PriorHits == 0 {
		t.Error("link RSU never used a forwarded prior")
	}
	if res.Records == 0 || res.Steps == 0 {
		t.Errorf("run too small: %+v", res)
	}
	if res.Aggressive > 0 && res.AggressiveWarned == 0 {
		t.Error("no aggressive driver was ever warned")
	}
	// Driver-awareness: aggressive drivers must be warned far more often
	// per record than ordinary drivers.
	if res.Aggressive > 0 && res.Vehicles > res.Aggressive {
		if res.AggressiveWarnRate <= 2*res.NormalWarnRate {
			t.Errorf("aggressive warn rate %.3f should be at least 2x normal %.3f",
				res.AggressiveWarnRate, res.NormalWarnRate)
		}
	}
}

func TestRunInterference(t *testing.T) {
	res, err := RunInterference(InterferenceConfig{RSUs: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatInterference(res))
	if res.NaiveConflicts == 0 {
		t.Fatal("dense single-channel deployment must conflict")
	}
	if res.ManagedConflicts >= res.NaiveConflicts {
		t.Errorf("management left %d conflicts of %d naive", res.ManagedConflicts, res.NaiveConflicts)
	}
	if res.MCS != netem.MCS8 {
		t.Errorf("125 m spacing should select MCS8, got %v", res.MCS)
	}
	if !res.Dense400OK {
		t.Error("400 vehicles should fit under 85 ms at the dense mode (§VII-B)")
	}
	if FormatInterference(res) == "" {
		t.Error("empty format")
	}
}

func TestRunBackhaulAnalysis(t *testing.T) {
	rows, err := RunBackhaulAnalysis(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatBackhaulRows(rows))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ordering: ethernet < 5g < lte.
	if !(rows[0].Mean < rows[1].Mean && rows[1].Mean < rows[2].Mean) {
		t.Errorf("backhaul ordering broken: %v", rows)
	}
	for _, r := range rows {
		if r.P95 < r.Mean {
			t.Errorf("%s: p95 %v below mean %v", r.Kind, r.P95, r.Mean)
		}
	}
}

func TestRunLossImpact(t *testing.T) {
	pool, det, err := BuildLatencyInputs(11)
	if err != nil {
		t.Fatal(err)
	}
	bands, err := RunLossImpact(LossConfig{Vehicles: 48, Rounds: 100, Seed: 11, Records: pool, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatLossBands(bands))
	if len(bands) != 6 {
		t.Fatalf("bands = %d", len(bands))
	}
	near, far := bands[0], bands[len(bands)-1]
	if near.Sent == 0 || far.Sent == 0 {
		t.Fatal("empty bands")
	}
	if near.DeliveryRatio() <= far.DeliveryRatio() {
		t.Errorf("delivery should fall with distance: near %.3f vs far %.3f",
			near.DeliveryRatio(), far.DeliveryRatio())
	}
	if near.DeliveryRatio() < 0.95 {
		t.Errorf("near band delivery %.3f too low", near.DeliveryRatio())
	}
	if far.DeliveryRatio() > 0.8 {
		t.Errorf("far band delivery %.3f too high for the edge of range", far.DeliveryRatio())
	}
	// Abnormal coverage follows delivery.
	if near.AbnormalCoverage() <= far.AbnormalCoverage() {
		t.Errorf("abnormal coverage should fall with distance")
	}
	if _, err := RunLossImpact(LossConfig{}); err == nil {
		t.Error("want error for missing inputs")
	}
}

func TestRunChainMobility(t *testing.T) {
	sc := testScenario(t)
	res, err := RunChainMobility(sc, ChainConfig{Hops: 4, Vehicles: 12, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatChain(res))
	if len(res.Hops) != 4 {
		t.Fatalf("hops = %d", len(res.Hops))
	}
	// Every boundary crossed by every vehicle: (hops-1) x vehicles.
	if res.Handovers != int64(3*res.Vehicles) {
		t.Errorf("handovers = %d, want %d", res.Handovers, 3*res.Vehicles)
	}
	// The summary is carried on: every hop after the first received one
	// summary per vehicle and used priors.
	for i, h := range res.Hops {
		if h.Records == 0 {
			t.Errorf("hop %d saw no records", i)
		}
		if i == 0 {
			continue
		}
		if h.SummariesReceived != int64(res.Vehicles) {
			t.Errorf("hop %d received %d summaries, want %d", i, h.SummariesReceived, res.Vehicles)
		}
		if h.PriorHits == 0 {
			t.Errorf("hop %d never used a prior", i)
		}
	}
	// Driver-awareness persists to the final hop.
	if res.Aggressive > 0 && res.Vehicles > res.Aggressive {
		if res.FinalAggressiveWarnRate <= res.FinalNormalWarnRate {
			t.Errorf("final-hop warn rates: aggressive %.3f <= normal %.3f",
				res.FinalAggressiveWarnRate, res.FinalNormalWarnRate)
		}
	}
}

// Command cad3-bench regenerates every table and figure of the paper's
// evaluation and prints them, the full-evaluation counterpart of the
// testing.B benchmarks in bench_test.go.
//
// Usage:
//
//	cad3-bench [-cars 500] [-seed 99] [-duration 2s] [-quick]
//	           [-debug-addr 127.0.0.1:6060]
//
// With -debug-addr set, /debug/pprof/ profiles the sweep while it runs
// and /health reports which section is in progress — see OBSERVABILITY.md
// and `make profile` for the CPU-profiling walkthrough.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"cad3/internal/experiments"
	"cad3/internal/obsv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cad3-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	cars := flag.Int("cars", 500, "corridor/background fleet size for the model scenario")
	seed := flag.Int64("seed", 42, "random seed")
	duration := flag.Duration("duration", 2*time.Second, "virtual duration of the network experiments")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	debugAddr := flag.String("debug-addr", "", "serve /health and pprof for the sweep on this address (empty: disabled)")
	flag.Parse()

	var current atomic.Value
	current.Store("startup")
	section := func(name string) {
		current.Store(name)
		fmt.Printf("\n=== %s ===\n", name)
	}
	if *debugAddr != "" {
		dbg, derr := obsv.ServeDebug(*debugAddr, obsv.DebugOptions{
			Health: func() any { return map[string]any{"section": current.Load()} },
		})
		if derr != nil {
			return derr
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint on http://%s (/health /debug/pprof/)\n", dbg.Addr())
	}

	// Model scenario (Figures 2, 7, 8; Tables III, IV; ablations).
	sc, err := experiments.BuildScenario(experiments.ScenarioConfig{Cars: *cars, Seed: *seed})
	if err != nil {
		return fmt.Errorf("build scenario: %w", err)
	}

	section("Figure 2: speed profiles (measured, km/h by hour)")
	fmt.Print(experiments.FormatFigure2(experiments.RunFigure2(sc)))

	section("Table III: dataset statistics after filtering")
	fmt.Print(experiments.FormatTable3(experiments.RunTable3(sc)))

	section("Figure 7 + Table IV: centralized vs AD3 vs CAD3")
	modelRows, err := experiments.RunModelComparison(sc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatModelRows(modelRows))

	section("Figure 8: mesoscopic (driver-trip) timeline")
	meso, err := experiments.RunMesoscopicTimeline(sc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatMesoscopic(meso))

	// Network experiments (Figure 6).
	pool, det, err := experiments.BuildLatencyInputs(*seed)
	if err != nil {
		return err
	}
	base := experiments.LatencyConfig{
		Duration: *duration,
		Seed:     *seed,
		Records:  pool,
		Detector: det,
	}
	counts := []int{8, 16, 32, 64, 128, 256}
	if *quick {
		counts = []int{8, 64}
	}

	section("Figure 6a/6c: latency and bandwidth vs vehicles")
	latRows, err := experiments.RunLatencyScaling(counts, base)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatLatencyResults(latRows))

	section("Figure 6b/6d: multi-RSU dissemination latency and bandwidth")
	vehiclesPerRSU := 128
	if *quick {
		vehiclesPerRSU = 32
	}
	rsuRows, err := experiments.RunMultiRSU(experiments.MultiRSUConfig{
		MotorwayRSUs:   4,
		VehiclesPerRSU: vehiclesPerRSU,
		Duration:       *duration,
		Seed:           *seed,
		Records:        pool,
		Detector:       det,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatRSUResults(rsuRows))

	// Planning and analytic results (Tables V, VI; Equation 5; scale).
	scale := 1.0
	if *quick {
		scale = 0.1
	}
	section("Table V: RSU deployment plan (paper statistics)")
	fromStats, fromNet, err := experiments.RunTable5(scale, *seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable5(fromStats))
	section("Table V: RSU deployment plan (sampled synthetic network)")
	fmt.Print(experiments.FormatTable5(fromNet))

	section("Table VI: roadside infrastructure spacing")
	t6, err := experiments.RunTable6(0.2, *seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable6(t6))

	section("Equation 5: MAC channel-access time")
	mac, err := experiments.RunMACAnalysis()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatMACRows(mac))

	section("City-scale capacity arithmetic")
	fmt.Print(experiments.FormatCityScale(experiments.RunCityScale(2_000_000)))

	// Ablations.
	section("Extension: frame loss vs distance (coverage-edge impact)")
	lossBands, err := experiments.RunLossImpact(experiments.LossConfig{Seed: *seed, Records: pool, Detector: det})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatLossBands(lossBands))

	section("Extension: inter-RSU backhaul link comparison")
	bh, err := experiments.RunBackhaulAnalysis(*seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatBackhaulRows(bh))

	section("Extension: dense-deployment interference management")
	intf, err := experiments.RunInterference(experiments.InterferenceConfig{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatInterference(intf))

	section("Extension: live mobility with automatic handover")
	mob, err := experiments.RunMobileHandover(sc, experiments.MobilityConfig{Vehicles: 24, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatMobility(mob))

	section("Extension: multi-hop summary chain (mesoscopic carry-on)")
	chain, err := experiments.RunChainMobility(sc, experiments.ChainConfig{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatChain(chain))

	section("Ablation: collaboration weight (Equation 1)")
	w, err := experiments.RunCollabWeightSweep(sc, nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatWeightRows(w))

	section("Ablation: decision-tree feature set")
	f, err := experiments.RunDTFeatureAblation(sc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFeatureRows(f))

	if !*quick {
		section("Ablation: micro-batch interval")
		biBase := base
		biBase.Vehicles = 64
		biBase.Duration = time.Second
		bi, err := experiments.RunBatchIntervalSweep(biBase, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatIntervalRows(bi))

		section("Ablation: consumer poll interval")
		pi, err := experiments.RunPollIntervalSweep(biBase, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatIntervalRows(pi))
	}
	return nil
}

package cad3_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"cad3"
	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/geo"
	"cad3/internal/trace"
)

// The integration tests drive the system end-to-end: dataset generation
// through model training, and the full networked pipeline (TCP brokers,
// RSU nodes, emulated vehicles) through the public API on the wall clock.

var (
	itScenarioOnce sync.Once
	itScenario     *cad3.Scenario
	itScenarioErr  error
)

func integrationScenario(t *testing.T) *cad3.Scenario {
	t.Helper()
	itScenarioOnce.Do(func() {
		itScenario, itScenarioErr = cad3.BuildScenario(cad3.ScenarioConfig{Cars: 250, Seed: 21})
	})
	if itScenarioErr != nil {
		t.Fatal(itScenarioErr)
	}
	return itScenario
}

func TestPublicAPIDatasetPipeline(t *testing.T) {
	net, err := cad3.BuildNetwork(cad3.NetworkConfig{Scale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(trace.GeneratorConfig{Network: net, Cars: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.DeriveRecords(net, ds.Trajectories, trace.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := trace.FilterRecords(recs)
	if len(clean) == 0 {
		t.Fatal("empty filtered dataset")
	}
	labeler, err := core.TrainLabeler(clean, 0)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewCentralized()
	if err := det.Train(clean, labeler); err != nil {
		t.Fatal(err)
	}
	m, err := core.EvaluateDetector(det, clean, labeler, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != len(clean) {
		t.Errorf("evaluated %d records, want %d", m.Total(), len(clean))
	}
}

func TestPublicAPIPlanningSurface(t *testing.T) {
	rows := cad3.PlanRSUs()
	if len(rows) != 10 {
		t.Fatalf("plan rows = %d", len(rows))
	}
	var total int
	for _, r := range rows {
		total += r.RSUs
	}
	if total != 4997 {
		t.Errorf("total RSUs = %d", total)
	}
}

// TestEndToEndPipelineOverTCP is the paper's testbed in one process: a
// motorway RSU and a motorway-link RSU each behind a real TCP broker,
// vehicles streaming at an accelerated rate, a live handover, and
// end-to-end warning latency measured at the vehicles.
func TestEndToEndPipelineOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock pipeline in -short mode")
	}
	sc := integrationScenario(t)

	mwBroker, linkBroker := cad3.NewBroker(), cad3.NewBroker()
	mwServer, err := cad3.Serve(mwBroker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mwServer.Close()
	linkServer, err := cad3.Serve(linkBroker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer linkServer.Close()

	mwRSU, err := cad3.NewRSU(cad3.RSUConfig{
		Name: "Mw", Road: 1, Detector: sc.Upstream,
		Client:        cad3.NewInProcClient(mwBroker),
		BatchInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	linkRSU, err := cad3.NewRSU(cad3.RSUConfig{
		Name: "Link", Road: 2, Detector: sc.CAD3,
		Client:        cad3.NewInProcClient(linkBroker),
		BatchInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := cad3.Dial(linkServer.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer neighbor.Close()
	if err := mwRSU.AddNeighbor("link", neighbor); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = mwRSU.Run(ctx) }()
	go func() { _ = linkRSU.Run(ctx) }()

	// Phase 1: vehicles on the motorway (accelerated clock: 10 ms sends).
	const vehicles = 6
	mwRecords := trace.RecordsOfType(sc.Test, geo.Motorway)
	clients := make([]cad3.Client, vehicles)
	for i := range clients {
		c, err := cad3.Dial(mwServer.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	fleet, err := cad3.NewFleet(vehicles, mwRecords, func(i int) cad3.Client { return clients[i] },
		cad3.VehicleConfig{Loop: true, SendInterval: 10 * time.Millisecond, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	phase1, cancel1 := context.WithTimeout(ctx, 700*time.Millisecond)
	_ = fleet.Run(phase1)
	cancel1()
	if mwRSU.Stats().Records == 0 {
		t.Fatal("motorway RSU saw no records")
	}

	// Handover all vehicles.
	for i := 1; i <= vehicles; i++ {
		if err := mwRSU.Handover(cad3.CarID(i), "link"); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: same vehicles on the link.
	linkClients := make([]cad3.Client, vehicles)
	for i := range linkClients {
		c, err := cad3.Dial(linkServer.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		linkClients[i] = c
	}
	fleet2, err := cad3.NewFleet(vehicles, sc.TestLink, func(i int) cad3.Client { return linkClients[i] },
		cad3.VehicleConfig{Loop: true, SendInterval: 10 * time.Millisecond, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	phase2, cancel2 := context.WithTimeout(ctx, 700*time.Millisecond)
	_ = fleet2.Run(phase2)
	cancel2()
	time.Sleep(50 * time.Millisecond)

	st := linkRSU.Stats()
	if st.SummariesReceived != vehicles {
		t.Errorf("link RSU received %d summaries, want %d", st.SummariesReceived, vehicles)
	}
	if st.Records == 0 {
		t.Fatal("link RSU saw no records")
	}
	if st.PriorHits == 0 {
		t.Error("no detections used the forwarded priors")
	}

	// Warnings must have flowed back with sane latency (in-process
	// pipeline: bounded by the batch interval + polling).
	var latencySamples int
	for _, v := range fleet2.Vehicles() {
		rep := v.Latencies()
		latencySamples += rep.Total.Count
		if rep.Total.Count > 0 && rep.Total.Mean > 500*time.Millisecond {
			t.Errorf("vehicle latency mean %v implausibly high", rep.Total.Mean)
		}
	}
	if latencySamples == 0 {
		t.Error("no end-to-end warnings measured")
	}
}

func TestPublicAPIDESLatency(t *testing.T) {
	sc := integrationScenario(t)
	res, err := experiments.RunLatency(experiments.LatencyConfig{
		Vehicles: 16,
		Duration: time.Second,
		Seed:     21,
		Records:  sc.TestLink,
		Detector: sc.AD3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warnings == 0 {
		t.Fatal("no warnings in DES run")
	}
	if res.Report.Total.Mean <= 0 || res.Report.Total.Mean > 100*time.Millisecond {
		t.Errorf("total latency %v out of band", res.Report.Total.Mean)
	}
}

package rsu

import (
	"testing"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// TestNodeStepAllocatesNothingPerRecord pins the in-process path of a
// single-worker node: a micro-batch of 256 untraced records, half of them
// from cars with a forwarded prior, is lent out of the broker's log,
// decoded, detected on and folded into the summaries, and its warnings are
// written to OUT-DATA, without one allocation that scales with the batch or
// with its warnings. The quiet window raises none; the other raises one on
// a quarter of its records, as the benchmark corpus does. The engine runs a
// one-worker Step on the caller's goroutine and the discarded debug log
// boxes nothing, so a warm Step allocates nothing at all.
func TestNodeStepAllocatesNothingPerRecord(t *testing.T) {
	pinAllocs := !stream.PoolGuard && !raceEnabled
	_, _, _, cad3 := trainedDetectors(t)
	const window, cars = 256, 16
	allocs := map[string]float64{}
	for _, tc := range []struct {
		name  string
		speed func(i int) float64
		warns int64 // a Step's warnings
	}{
		{"quiet", func(int) float64 { return 35 }, 0},
		{"quarter-warn", func(i int) float64 {
			if i%4 == 1 {
				return 90
			}
			return 35
		}, window / 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broker := stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 1024})
			client := stream.NewInProcClient(broker)
			n, err := New(Config{Name: "link", Road: 7, Detector: cad3, Client: client, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for car := trace.CarID(0); car < cars; car += 2 {
				payload, err := core.EncodeSummary(core.PredictionSummary{Car: car, FromRoad: 3, MeanPNormal: 0.9, Count: 12, UpdatedMs: n.cfg.Now().UnixMilli()})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := client.Produce(stream.TopicCoData, stream.AutoPartition, carKey(car), payload); err != nil {
					t.Fatal(err)
				}
			}
			recs := make([]stream.BatchRecord, window)
			for i := range recs {
				car := trace.CarID(i % cars)
				recs[i] = stream.BatchRecord{Key: carKey(car), Value: core.AppendRecord(nil, mkRec(car, geo.MotorwayLink, tc.speed(i), 14))}
			}
			res := make([]stream.BatchResult, window)
			step := func() {
				if err := client.ProduceBatchInto(stream.TopicInData, stream.AutoPartition, recs, res); err != nil {
					t.Fatal(err)
				}
				if bs, err := n.Step(); err != nil || bs.Records != window {
					t.Fatalf("Step = %d records, %v; want %d", bs.Records, err, window)
				}
			}
			for i := 0; i < 20; i++ {
				step() // warm the log's chunks, the engine's batch and the summary maps
			}
			before := n.Stats()
			allocs[tc.name] = testing.AllocsPerRun(100, step)
			st := n.Stats()
			if st.PriorHits == 0 || st.PriorMisses == 0 {
				t.Fatalf("the batch should mix prior hits with misses: %+v", st)
			}
			if steps := st.Engine.Batches - before.Engine.Batches; st.Warnings-before.Warnings != steps*tc.warns {
				t.Fatalf("%d warnings over %d steps, want %d a step", st.Warnings-before.Warnings, steps, tc.warns)
			}
			if pinAllocs && allocs[tc.name] > 0 {
				t.Errorf("Step over %d records: %v allocs, want none", window, allocs[tc.name])
			}
		})
	}
	if pinAllocs && allocs["quarter-warn"] > allocs["quiet"] {
		t.Errorf("a Step with %d warnings makes %v allocs, one without makes %v: want none per warning",
			window/4, allocs["quarter-warn"], allocs["quiet"])
	}
}

// TestCarLifecycleAllocatesNothing pins a warm car's life at an RSU:
// twenty predictions folded into its history, then a handover that
// encodes the key and the 38 B summary into one pooled buffer and writes
// them to an in-process neighbour's CO-DATA. The builder keeps histories
// by value, so the car's next life reuses the slot the handover forgot
// and nothing allocates.
func TestCarLifecycleAllocatesNothing(t *testing.T) {
	_, _, _, cad3 := trainedDetectors(t)
	n, _, _ := newNode(t, "motorway", cad3)
	neighbour := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 1024}))
	if err := n.AddNeighbor("link", neighbour); err != nil {
		t.Fatal(err)
	}
	const car = trace.CarID(7)
	life := func() {
		for i := 0; i < 20; i++ {
			n.builder.Observe(car, 0.9)
		}
		if err := n.Handover(car, "link"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		life() // warm the payload pool and the neighbour's log
	}
	allocs := testing.AllocsPerRun(100, life)
	if got := n.Stats().SummariesSent; got != 111 {
		t.Fatalf("SummariesSent = %d, want 111", got)
	}
	if !stream.PoolGuard && !raceEnabled && allocs != 0 {
		t.Errorf("observe x20 + handover: %v allocs, want 0", allocs)
	}
}

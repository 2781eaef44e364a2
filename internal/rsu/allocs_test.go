package rsu

import (
	"testing"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// TestNodeStepAllocatesNothingPerRecord pins the in-process read path: a
// micro-batch of 256 untraced records that raise no warning, half of them
// from cars with a forwarded prior, is lent out of the broker's log,
// decoded, detected on and folded into the summaries without one
// allocation that scales with the batch. What is left — the engine's worker
// goroutine and its bookkeeping — is a handful per Step whatever its size.
func TestNodeStepAllocatesNothingPerRecord(t *testing.T) {
	_, _, _, cad3 := trainedDetectors(t)
	broker := stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 1024})
	client := stream.NewInProcClient(broker)
	n, err := New(Config{Name: "link", Road: 7, Detector: cad3, Client: client, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const window, cars = 256, 16
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
		recs[i] = stream.BatchRecord{Key: carKey(car), Value: core.AppendRecord(nil, mkRec(car, geo.MotorwayLink, 35, 14))}
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
	allocs := testing.AllocsPerRun(100, step)
	st := n.Stats()
	if st.Warnings != 0 || st.PriorHits == 0 || st.PriorMisses == 0 {
		t.Fatalf("the batch should raise no warning and mix prior hits with misses: %+v", st)
	}
	if !stream.PoolGuard && allocs > 8 {
		t.Errorf("Step over %d records: %v allocs, want a handful (none per record)", window, allocs)
	}
}

package rsu

import (
	"errors"
	"testing"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// sendSummary produces a CO-DATA prediction summary to the node's broker.
func sendSummary(t *testing.T, client stream.Client, sum core.PredictionSummary) {
	t.Helper()
	payload, err := core.EncodeSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Produce(stream.TopicCoData, stream.AutoPartition, nil, payload); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecoverResumesWithoutReprocessing is the crash drill: an
// RSU processes part of its backlog, checkpoints, more data arrives, the
// process dies. The broker survives, as under the scenario harness's
// rsu_crash/rsu_recover, and the node is recovered from its checkpoint
// against it; the recovered node must process exactly the records the
// dead one had not, with its summaries, history and profile intact.
func TestCheckpointRecoverResumesWithoutReprocessing(t *testing.T) {
	_, _, _, cad := trainedDetectors(t)
	client := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))
	n, err := New(Config{Name: "MwLink", Road: 7, Detector: cad, Client: client})
	if err != nil {
		t.Fatal(err)
	}

	// A forwarded summary arrives and three records are processed.
	sendSummary(t, client, core.PredictionSummary{
		Car: 7, MeanPNormal: 0.9, Count: 5, FromRoad: 1,
		UpdatedMs: n.cfg.Now().UnixMilli(),
	})
	for i := 0; i < 3; i++ {
		sendRecord(t, client, mkRec(trace.CarID(100+i), geo.MotorwayLink, 35, 14))
	}
	if _, err := n.Step(); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Records; got != 3 {
		t.Fatalf("processed %d records before crash, want 3", got)
	}

	cp, err := n.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Two more records land after the checkpoint, then the node dies.
	sendRecord(t, client, mkRec(200, geo.MotorwayLink, 35, 14))
	sendRecord(t, client, mkRec(7, geo.MotorwayLink, 50, 14))

	rn, err := Recover(Config{Client: client}, cp)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Name() != "MwLink" || rn.Road() != 7 {
		t.Errorf("recovered identity = %q/%d, want MwLink/7", rn.Name(), rn.Road())
	}

	// Pre-crash state carried over.
	if rn.StoredSummaries() != 1 {
		t.Errorf("recovered StoredSummaries = %d, want 1", rn.StoredSummaries())
	}
	if rn.TrackedCars() != 3 {
		t.Errorf("recovered TrackedCars = %d, want 3", rn.TrackedCars())
	}
	if got, want := rn.Profile().Samples(), n.Profile().Samples(); got != want {
		t.Errorf("recovered profile samples = %d, want %d", got, want)
	}

	// Only the two post-checkpoint records are processed; car 7 still hits
	// its forwarded prior.
	bs, err := rn.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 2 {
		t.Errorf("recovered node processed %d records, want 2 (no re-processing)", bs.Records)
	}
	st := rn.Stats()
	if st.PriorHits != 1 {
		t.Errorf("recovered PriorHits = %d, want 1 (car 7's summary)", st.PriorHits)
	}
	if st.Fallbacks != 1 {
		t.Errorf("recovered Fallbacks = %d, want 1 (car 200 has no prior)", st.Fallbacks)
	}
	if rn.TrackedCars() != 5 {
		t.Errorf("TrackedCars after resume = %d, want 5", rn.TrackedCars())
	}

	// The observability registry rides the checkpoint: the recovered node's
	// counters continue from the crash point (3 pre-crash records + 2
	// resumed), not from zero.
	if got := rn.Registry().Counter("microbatch.records").Value(); got != 5 {
		t.Errorf("recovered microbatch.records = %d, want 5 (3 restored + 2 resumed)", got)
	}
	if got := rn.Registry().Counter("microbatch.batches").Value(); got < 2 {
		t.Errorf("recovered microbatch.batches = %d, want >= 2", got)
	}
}

// TestRecoverLoadsDetectorFromBundle recovers with cfg.Detector nil: the
// checkpoint's persisted model must come back trained and collaborative.
func TestRecoverLoadsDetectorFromBundle(t *testing.T) {
	_, _, _, cad := trainedDetectors(t)
	n, _, _ := newNode(t, "MwLink", cad)
	// Checkpoint before processing: the recovered node targets a fresh
	// broker, so its offsets must start at zero.
	cp, err := n.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	rn, err := Recover(Config{Client: stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))}, cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rn.Detector().(*core.CAD3); !ok {
		t.Fatalf("recovered detector is %T, want *core.CAD3", rn.Detector())
	}
	if !rn.collab {
		t.Error("recovered CAD3 node should count degraded fallbacks")
	}
	// The restored model detects (fresh broker, so the record is new).
	sendRecord(t, rn.Client(), mkRec(2, geo.MotorwayLink, 90, 14))
	if _, err := rn.Step(); err != nil {
		t.Fatal(err)
	}
	if rn.Stats().Warnings != 1 {
		t.Errorf("recovered detector warnings = %d, want 1", rn.Stats().Warnings)
	}
}

func TestRecoverValidation(t *testing.T) {
	client := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))
	if _, err := Recover(Config{Client: client}, nil); !errors.Is(err, ErrNilCheckpoint) {
		t.Errorf("nil checkpoint: err = %v, want ErrNilCheckpoint", err)
	}
	if _, err := Recover(Config{Client: client}, &Checkpoint{Version: 99}); err == nil {
		t.Error("want error for unknown checkpoint version")
	}

	// Offset vectors must match the broker's partition layout.
	_, _, _, cad := trainedDetectors(t)
	n, _, _ := newNode(t, "x", cad)
	cp, err := n.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.InOffsets = cp.InOffsets[:1]
	mismatched := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))
	if _, err := Recover(Config{Client: mismatched}, cp); err == nil {
		t.Error("want error for offset/partition mismatch")
	}
}

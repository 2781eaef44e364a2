package rsu

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// mkRec builds a record with the given speed on the given road type.
func mkRec(car trace.CarID, rt geo.RoadType, speed float64, hour int) trace.Record {
	return trace.Record{
		Car: car, Road: 7, RoadType: rt, Speed: speed, Accel: 0,
		Hour: hour, Day: 4, RoadMeanSpeed: 35,
	}
}

// trainedDetectors builds a quick labeler + AD3(link) + AD3(motorway) +
// CAD3(link) from a hand-made distribution: link normal ~N(35,5),
// motorway ~N(100,10), abnormal = tails.
func trainedDetectors(t testing.TB) (*core.Labeler, *core.AD3, *core.AD3, *core.CAD3) {
	t.Helper()
	var recs []trace.Record
	offsets := []float64{-2.8, -1.6, -0.9, -0.4, 0, 0.4, 0.9, 1.6, 2.8}
	car := trace.CarID(1)
	for _, o := range offsets {
		for rep := 0; rep < 30; rep++ {
			for _, hour := range []int{8, 14, 21} {
				l := mkRec(car, geo.MotorwayLink, 35+o*5, hour)
				m := mkRec(car, geo.Motorway, 100+o*10, hour)
				recs = append(recs, l, m)
				car++
			}
		}
	}
	labeler, err := core.TrainLabeler(recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	link := core.NewAD3(geo.MotorwayLink)
	if err := link.Train(recs, labeler); err != nil {
		t.Fatal(err)
	}
	mw := core.NewAD3(geo.Motorway)
	if err := mw.Train(recs, labeler); err != nil {
		t.Fatal(err)
	}
	cad := core.NewCAD3(geo.MotorwayLink, core.CAD3Config{})
	if err := cad.Train(recs, labeler, mw); err != nil {
		t.Fatal(err)
	}
	return labeler, link, mw, cad
}

func newNode(t *testing.T, name string, det core.Detector) (*Node, *stream.Broker, stream.Client) {
	t.Helper()
	b := stream.NewBroker(stream.BrokerConfig{})
	client := stream.NewInProcClient(b)
	n, err := New(Config{
		Name:     name,
		Road:     7,
		Detector: det,
		Client:   client,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, b, client
}

func sendRecord(t *testing.T, client stream.Client, rec trace.Record) {
	t.Helper()
	payload, err := core.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Produce(stream.TopicInData, stream.AutoPartition, nil, payload); err != nil {
		t.Fatal(err)
	}
}

func TestNodeDetectsAndWarns(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	n, _, client := newNode(t, "MwLink", link)

	// One clearly normal, one clearly abnormal record.
	sendRecord(t, client, mkRec(100, geo.MotorwayLink, 35, 14))
	sendRecord(t, client, mkRec(101, geo.MotorwayLink, 90, 14))

	bs, err := n.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 2 {
		t.Fatalf("processed %d records, want 2", bs.Records)
	}

	out, err := stream.NewConsumer(client, stream.TopicOutData, 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := out.Poll(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d warnings, want 1", len(msgs))
	}
	w, err := core.DecodeWarning(msgs[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if w.Car != 101 {
		t.Errorf("warning for car %d, want 101", w.Car)
	}
	st := n.Stats()
	if st.Records != 2 || st.Warnings != 1 || st.Engine.Batches != 1 {
		t.Errorf("stats = %+v", st)
	}
	if n.TrackedCars() != 2 {
		t.Errorf("TrackedCars = %d, want 2", n.TrackedCars())
	}
}

func TestHandoverDeliversSummary(t *testing.T) {
	_, _, mw, cad := trainedDetectors(t)
	mwNode, _, mwClient := newNode(t, "Mw", mw)
	linkNode, _, linkClient := newNode(t, "MwLink", cad)
	if err := mwNode.AddNeighbor("MwLink", linkClient); err != nil {
		t.Fatal(err)
	}

	// The car drives the motorway abnormally fast; the motorway RSU
	// accumulates predictions.
	for i := 0; i < 5; i++ {
		sendRecord(t, mwClient, mkRec(7, geo.Motorway, 135, 14))
	}
	if _, err := mwNode.Step(); err != nil {
		t.Fatal(err)
	}
	if mwNode.TrackedCars() != 1 {
		t.Fatalf("motorway node tracks %d cars", mwNode.TrackedCars())
	}

	// Handover to the link RSU.
	if err := mwNode.Handover(7, "MwLink"); err != nil {
		t.Fatal(err)
	}
	if got := mwNode.Stats().SummariesSent; got != 1 {
		t.Errorf("SummariesSent = %d", got)
	}
	if mwNode.TrackedCars() != 0 {
		t.Error("handover should forget the car locally")
	}

	// The link RSU ingests the summary and uses it as prior.
	sendRecord(t, linkClient, mkRec(7, geo.MotorwayLink, 50, 14))
	if _, err := linkNode.Step(); err != nil {
		t.Fatal(err)
	}
	st := linkNode.Stats()
	if st.SummariesReceived != 1 {
		t.Errorf("SummariesReceived = %d", st.SummariesReceived)
	}
	if st.PriorHits != 1 {
		t.Errorf("PriorHits = %d, want 1", st.PriorHits)
	}
	if linkNode.StoredSummaries() != 1 {
		t.Errorf("StoredSummaries = %d", linkNode.StoredSummaries())
	}

	// Handover for an unknown car is a no-op, unknown neighbor an error.
	if err := mwNode.Handover(999, "MwLink"); err != nil {
		t.Errorf("unknown car handover: %v", err)
	}
	if err := mwNode.Handover(7, "ghost"); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("err = %v, want ErrNoNeighbor", err)
	}
}

func TestNodePriorMissFallsBack(t *testing.T) {
	_, _, _, cad := trainedDetectors(t)
	n, _, client := newNode(t, "MwLink", cad)
	sendRecord(t, client, mkRec(55, geo.MotorwayLink, 36, 14))
	if _, err := n.Step(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.PriorMisses != 1 || st.PriorHits != 0 {
		t.Errorf("prior stats = %+v", st)
	}
	if st.DetectErrors != 0 {
		t.Errorf("DetectErrors = %d", st.DetectErrors)
	}
}

func TestNodeSurvivesCoDataPartitionFailure(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	n, b, client := newNode(t, "MwLink", link)
	b.SetPartitionDown(stream.TopicCoData, 0, true)
	b.SetPartitionDown(stream.TopicCoData, 1, true)
	b.SetPartitionDown(stream.TopicCoData, 2, true)

	sendRecord(t, client, mkRec(1, geo.MotorwayLink, 90, 14))
	bs, err := n.Step()
	if err != nil {
		t.Fatalf("Step should tolerate CO-DATA failure, got %v", err)
	}
	if bs.Records != 1 {
		t.Errorf("records = %d", bs.Records)
	}
	if n.Stats().Warnings != 1 {
		t.Error("detection should continue without collaboration")
	}
}

func TestNodeValidation(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	b := stream.NewBroker(stream.BrokerConfig{})
	client := stream.NewInProcClient(b)
	if _, err := New(Config{Client: client}); !errors.Is(err, ErrNoDetector) {
		t.Errorf("err = %v, want ErrNoDetector", err)
	}
	if _, err := New(Config{Detector: link}); !errors.Is(err, ErrNoClient) {
		t.Errorf("err = %v, want ErrNoClient", err)
	}
	n, err := New(Config{Name: "x", Detector: link, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddNeighbor("y", nil); !errors.Is(err, ErrNoClient) {
		t.Errorf("err = %v, want ErrNoClient", err)
	}
	if n.Name() != "x" || n.Road() != 0 {
		t.Errorf("identity = %q %d", n.Name(), n.Road())
	}
}

func TestNodeRunWallClock(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	n, _, client := newNode(t, "MwLink", link)
	n2, err := New(Config{
		Name: "fast", Road: 7, Detector: link, Client: client,
		BatchInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = n // the default-interval node is exercised elsewhere

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n2.Run(ctx) }()

	for i := 0; i < 10; i++ {
		sendRecord(t, client, mkRec(trace.CarID(i), geo.MotorwayLink, 90, 14))
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for n2.Stats().Warnings < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Run returned %v", err)
	}
	if got := n2.Stats().Warnings; got < 10 {
		t.Errorf("warnings = %d, want >= 10", got)
	}
}

func TestNodeMalformedRecordsCounted(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	n, _, client := newNode(t, "MwLink", link)
	if _, _, err := client.Produce(stream.TopicInData, stream.AutoPartition, nil, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	bs, err := n.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.DecodeErrors != 1 || bs.Records != 0 {
		t.Errorf("batch = %+v", bs)
	}
}

func TestNodeWithLogger(t *testing.T) {
	_, _, mw, _ := trainedDetectors(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	b := stream.NewBroker(stream.BrokerConfig{})
	client := stream.NewInProcClient(b)
	n, err := New(Config{Name: "Mw", Road: 1, Detector: mw, Client: client, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := New(Config{Name: "Link", Road: 2, Detector: mw, Client: stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddNeighbor("Link", stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))); err != nil {
		t.Fatal(err)
	}
	_ = n2
	sendRecord(t, client, mkRec(3, geo.Motorway, 140, 14))
	if _, err := n.Step(); err != nil {
		t.Fatal(err)
	}
	if err := n.Handover(3, "Link"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "warning produced") {
		t.Errorf("log missing warning event:\n%s", out)
	}
	if !strings.Contains(out, "handover") {
		t.Errorf("log missing handover event:\n%s", out)
	}
}

// Degraded-mode admission: a node that cannot clear its backlog (consecutive
// saturated batches) sheds stale telemetry from vehicles whose forwarded
// summaries read low-risk — and only those.
func TestNodeDegradedModeShedsStaleLowRisk(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	b := stream.NewBroker(stream.BrokerConfig{})
	client := stream.NewInProcClient(b)
	base := time.UnixMilli(1_700_000_000_000)
	n, err := New(Config{
		Name:           "MwLink",
		Road:           7,
		Detector:       link,
		Client:         client,
		Partitions:     1,
		MaxBatch:       8,
		ShedStaleAfter: time.Second,
		Now:            func() time.Time { return base },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Car 500 has a forwarded summary that says it behaves; car 501 has
	// no history at this RSU.
	sum := core.PredictionSummary{
		Car: 500, MeanPNormal: 0.95, Count: 5, FromRoad: 3,
		UpdatedMs: base.UnixMilli(),
	}
	payload, err := core.EncodeSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Produce(stream.TopicCoData, 0, nil, payload); err != nil {
		t.Fatal(err)
	}

	send := func(car trace.CarID, tsMs int64) {
		t.Helper()
		rec := mkRec(car, geo.MotorwayLink, 35, 14)
		rec.TimestampMs = tsMs
		sendRecord(t, client, rec)
	}

	// Two full drains in a row: the node declares itself degraded.
	for i := 0; i < 16; i++ {
		send(trace.CarID(100+i), base.UnixMilli())
	}
	for i := 0; i < 2; i++ {
		bs, err := n.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !bs.Saturated || bs.Records != 8 {
			t.Fatalf("step %d: records=%d saturated=%v, want a full drain of 8", i, bs.Records, bs.Saturated)
		}
	}
	if !n.Stats().Degraded {
		t.Fatal("two saturated batches should flip the node degraded")
	}

	// One stale record each from the low-risk and the unknown car, plus a
	// fresh one from the low-risk car: only the stale low-risk record is
	// shed.
	stale := base.Add(-5 * time.Second).UnixMilli()
	send(500, stale)
	send(501, stale)
	send(500, base.UnixMilli())
	bs, err := n.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 3 {
		t.Fatalf("drained %d records, want 3", bs.Records)
	}

	st := n.Stats()
	if st.ShedStale != 1 {
		t.Errorf("ShedStale = %d, want 1 (only the stale low-risk record)", st.ShedStale)
	}
	if st.Degraded {
		t.Error("an unsaturated batch should clear degraded mode")
	}
	if st.DegradedRounds != 1 {
		t.Errorf("DegradedRounds = %d, want 1", st.DegradedRounds)
	}
	if got := n.Registry().Snapshot().Gauges["flow.node.shed_stale"]; got != 1 {
		t.Errorf("flow.node.shed_stale gauge = %d, want 1", got)
	}
	if d := st.DegradedCounters(); d.ShedStale != 1 {
		t.Errorf("DegradedCounters().ShedStale = %d, want 1", d.ShedStale)
	}
}

// With BatchSLO set the node's engine runs under an AIMD drain bound.
func TestNodeAdaptiveBatchBound(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	b := stream.NewBroker(stream.BrokerConfig{})
	client := stream.NewInProcClient(b)
	n, err := New(Config{
		Name: "MwLink", Road: 7, Detector: link, Client: client,
		Partitions: 1, BatchSLO: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The controller's default floor is 32: a 100-record backlog drains in
	// bounded slices, not all at once.
	for i := 0; i < 100; i++ {
		sendRecord(t, client, mkRec(trace.CarID(1000+i), geo.MotorwayLink, 35, 14))
	}
	bs, err := n.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records > 96 {
		t.Errorf("first adaptive batch drained %d records, want a bounded slice", bs.Records)
	}
	if got := n.Registry().Snapshot().Gauges["flow.node.batch_limit"]; got == 0 {
		t.Error("flow.node.batch_limit gauge not registered")
	}
}

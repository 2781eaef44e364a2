package rsu

import (
	"testing"

	"cad3/internal/core"
	"cad3/internal/flow"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
	"cad3/internal/vehicle"
)

// benchPipeline wires one paced/unpaced vehicle into a flow-controlled
// broker and a live node — the full IN-DATA path the overload
// scenarios drive, reduced to a single hot loop.
func benchPipeline(b *testing.B, capacity int, pacing flow.PacerConfig) (*vehicle.Vehicle, *Node) {
	b.Helper()
	_, _, _, cad3 := trainedDetectors(b)
	broker := stream.NewBroker(stream.BrokerConfig{FlowCapacity: capacity})
	client := stream.NewInProcClient(broker)
	node, err := New(Config{
		Name: "Bench", Road: 7, Detector: cad3, Client: client,
		Workers: 1, Partitions: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	v, err := vehicle.New(vehicle.Config{
		ID:      1,
		Client:  client,
		Loop:    true,
		Records: []trace.Record{mkRec(1, geo.MotorwayLink, 35, 14)},
		Pacing:  pacing,
	})
	if err != nil {
		b.Fatal(err)
	}
	return v, node
}

// BenchmarkPipelineSteadyState drives the bounded pipeline inside its
// admission budget: every send is admitted and the node drains each
// window before the gate fills. This is the per-record cost of the happy
// path — send + admit + drain + detect.
func BenchmarkPipelineSteadyState(b *testing.B) {
	v, node := benchPipeline(b, 4096, flow.PacerConfig{})
	const window = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.SendNext(i); err != nil {
			b.Fatal(err)
		}
		if i%window == window-1 {
			if _, err := node.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if _, err := node.Step(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineSteadyStateTCP is the same happy path over a real TCP
// broker: telemetry batched onto the wire (256-record flushes through
// BatchProducer over the pipelined v2 protocol), the node fetching and
// detecting over its own connection. The per-record cost must stay in
// the same regime as the in-process pipeline — the wire amortized away,
// not added on top. With the batch window at 256 the syscall share drops
// under 7% and the remaining cost is the detection pipeline itself.
func BenchmarkPipelineSteadyStateTCP(b *testing.B) {
	_, _, _, cad3 := trainedDetectors(b)
	// Bounded retention keeps the broker in true steady state: eviction
	// recycles payload buffers at the same rate produce claims them, so
	// the pooled fast path stays warm instead of growing a 65536-message
	// backlog that starves the pool.
	broker := stream.NewBroker(stream.BrokerConfig{FlowCapacity: 4096, MaxRetainedPerPartition: 1024})
	srv, err := stream.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	nodeClient, err := stream.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer nodeClient.Close()
	node, err := New(Config{
		Name: "Bench", Road: 7, Detector: cad3, Client: nodeClient,
		Workers: 1, Partitions: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sendClient, err := stream.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sendClient.Close()
	bp, err := stream.NewBatchProducer(sendClient, stream.TopicInData, stream.AutoPartition,
		stream.BatchProducerConfig{FlushEvery: 256})
	if err != nil {
		b.Fatal(err)
	}
	rec := mkRec(1, geo.MotorwayLink, 35, 14)
	key := []byte("car-1")
	encode := func(dst []byte) []byte { return core.AppendRecord(dst, rec) }
	const window = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bp.AddPooled(key, encode); err != nil {
			b.Fatal(err)
		}
		if i%window == window-1 {
			if _, err := node.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := bp.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := node.Step(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNodeStepRemote is one micro-batch of the link node next to its
// broker over a socket, as Spark sits next to Kafka: 256 records a step, a
// quarter of them raising warnings, the node polling IN-DATA and writing
// OUT-DATA over a loopback v2 connection of its own. The records are put
// in the broker directly, so what is timed is the node's conversation with
// its broker plus detection — a poll round and one warning batch a step.
func BenchmarkNodeStepRemote(b *testing.B) {
	_, link, _, _ := trainedDetectors(b)
	broker := stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 4096})
	srv, err := stream.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	nodeClient, err := stream.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer nodeClient.Close()
	node, err := New(Config{Name: "Bench", Road: 7, Detector: link, Client: nodeClient, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	const window = 256
	recs := make([]stream.BatchRecord, window)
	for i := range recs {
		speed := 35.0
		if i%4 == 1 {
			speed = 90
		}
		car := trace.CarID(1 + i%64)
		recs[i] = stream.BatchRecord{Key: carKey(car), Value: core.AppendRecord(nil, mkRec(car, geo.MotorwayLink, speed, 14))}
	}
	res := make([]stream.BatchResult, window)
	feed := stream.NewInProcClient(broker)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := feed.ProduceBatchInto(stream.TopicInData, stream.AutoPartition, recs, res); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if bs, err := node.Step(); err != nil || bs.Records != window {
			b.Fatalf("step processed %d records, %v", bs.Records, err)
		}
	}
	b.StopTimer()
	if st := node.Stats(); st.Warnings != int64(b.N)*window/4 {
		b.Fatalf("%d warnings over %d steps, want %d a step", st.Warnings, b.N, window/4)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/record")
}

// BenchmarkPipelineOverload drives the same pipeline far past its drain
// rate: the gate spends most of the run full, so the measured cost is
// dominated by the refusal path — the preallocated backpressure error and
// the pacer's local decimation, which must both stay allocation-free
// exactly when the system is busiest.
func BenchmarkPipelineOverload(b *testing.B) {
	v, node := benchPipeline(b, 256, flow.PacerConfig{MaxDecimation: 8, RecoverAfter: 16})
	const window = 2048 // drain far less often than the gate fills
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.SendNext(i); err != nil {
			b.Fatal(err)
		}
		if i%window == window-1 {
			if _, err := node.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package vehicle_test

import (
	"fmt"

	"cad3/internal/flow"
	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/stream"
	"cad3/internal/trace"
	"cad3/internal/vehicle"
)

// Example_pacing shows a vehicle's send-side congestion response: a
// backpressured send doubles the decimation factor (every second sample is
// then dropped locally), and a streak of accepted sends earns the full
// rate back — no retries ever hit the broker.
func Example_pacing() {
	// A deliberately tiny broker: one partition, one credit.
	broker := stream.NewBroker(stream.BrokerConfig{
		FlowCapacity: 1,
	})
	for _, topic := range []string{stream.TopicInData, stream.TopicOutData} {
		if err := broker.CreateTopic(topic, 1); err != nil {
			panic(err)
		}
	}
	client := stream.NewInProcClient(broker)

	reg := obsv.NewRegistry()
	v, err := vehicle.New(vehicle.Config{
		ID:     7,
		Client: client,
		Loop:   true,
		Records: []trace.Record{{
			Car: 7, Road: 3, RoadType: geo.Motorway, Speed: 100,
		}},
		Pacing: flow.PacerConfig{MaxDecimation: 8, RecoverAfter: 2, Metrics: reg},
	})
	if err != nil {
		panic(err)
	}

	// First send takes the only credit; the second is refused and the
	// pacer backs off instead of surfacing an error.
	v.SendNext(0)
	v.SendNext(1)
	fmt.Println("decimation after backpressure:", reg.Gauge("flow.pacer.decimation").Value())

	// Drain the queue, then keep sending: accepted sends recover the rate.
	consumer, _ := stream.NewConsumer(client, stream.TopicInData, 0)
	for i := 2; reg.Gauge("flow.pacer.decimation").Value() > 1 && i < 20; i++ {
		msgs, _ := consumer.Poll(8)
		stream.RecycleMessages(msgs)
		v.SendNext(i)
	}
	fmt.Println("decimation after recovery:", reg.Gauge("flow.pacer.decimation").Value())
	fmt.Println("records on the wire:", v.Sent())

	// Output:
	// decimation after backpressure: 2
	// decimation after recovery: 1
	// records on the wire: 3
}

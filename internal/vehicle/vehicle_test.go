package vehicle

import (
	"context"
	"errors"
	"testing"
	"time"

	"cad3/internal/core"
	"cad3/internal/flow"
	"cad3/internal/geo"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

func testBrokerClient(t *testing.T) (*stream.Broker, stream.Client) {
	t.Helper()
	b := stream.NewBroker(stream.BrokerConfig{})
	for _, topic := range []string{stream.TopicInData, stream.TopicOutData} {
		if err := b.CreateTopic(topic, stream.DefaultPartitions); err != nil {
			t.Fatal(err)
		}
	}
	return b, stream.NewInProcClient(b)
}

func testRecords(n int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = trace.Record{
			Car: 1, Road: 7, RoadType: geo.MotorwayLink, Speed: 30 + float64(i),
			Accel: 0.5, Hour: 9, Day: 4, RoadMeanSpeed: 35,
		}
	}
	return out
}

func TestVehicleSendNext(t *testing.T) {
	_, client := testBrokerClient(t)
	v, err := New(Config{ID: 9, Client: client, Records: testRecords(3)})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := v.SendNext(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Car != 9 {
		t.Errorf("sent record carries car %d, want 9", rec.Car)
	}
	if rec.TimestampMs == 0 {
		t.Error("timestamp not stamped")
	}
	if v.Sent() != 1 {
		t.Errorf("Sent = %d", v.Sent())
	}

	// Replay end without looping.
	if _, err := v.SendNext(3); !errors.Is(err, ErrNoRecords) {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
	// With looping, index wraps.
	v2, _ := New(Config{ID: 9, Client: client, Records: testRecords(3), Loop: true})
	if _, err := v2.SendNext(7); err != nil {
		t.Errorf("looped send: %v", err)
	}

	// The record landed in IN-DATA.
	c, _ := stream.NewConsumer(client, stream.TopicInData, 0)
	msgs, _ := c.Poll(16)
	if len(msgs) != 2 {
		t.Errorf("IN-DATA has %d messages, want 2", len(msgs))
	}
}

func TestVehiclePollWarnings(t *testing.T) {
	_, client := testBrokerClient(t)
	v, err := New(Config{ID: 5, Client: client, Records: testRecords(1)})
	if err != nil {
		t.Fatal(err)
	}

	now := time.Now().UnixMilli()
	mine := core.Warning{Car: 5, Road: 7, SourceTsMs: now - 40, DetectedTsMs: now - 15}
	other := core.Warning{Car: 6, Road: 7, SourceTsMs: now - 40, DetectedTsMs: now - 15}
	for _, w := range []core.Warning{mine, other} {
		if _, _, err := client.Produce(stream.TopicOutData, stream.AutoPartition, nil, core.AppendWarning(nil, w)); err != nil {
			t.Fatal(err)
		}
	}
	// A malformed warning must be skipped silently.
	_, _, _ = client.Produce(stream.TopicOutData, stream.AutoPartition, nil, []byte("junk"))

	got, err := v.PollWarnings()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Car != 5 {
		t.Fatalf("warnings = %+v, want only car 5's", got)
	}
	if v.Received() != 1 {
		t.Errorf("Received = %d", v.Received())
	}
	rep := v.Latencies()
	if rep.Total.Count != 1 {
		t.Fatalf("latency count = %d", rep.Total.Count)
	}
	if rep.Total.Mean < 30*time.Millisecond || rep.Total.Mean > 200*time.Millisecond {
		t.Errorf("latency mean = %v, want ~40ms", rep.Total.Mean)
	}
}

func TestVehicleRunEndsWhenRecordsExhausted(t *testing.T) {
	_, client := testBrokerClient(t)
	v, err := New(Config{
		ID: 2, Client: client, Records: testRecords(3),
		SendInterval: time.Millisecond, PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := v.Run(ctx); err != nil {
		t.Fatalf("Run = %v, want clean end", err)
	}
	if v.Sent() != 3 {
		t.Errorf("Sent = %d, want 3", v.Sent())
	}
	if v.BandwidthBitsPerSec() <= 0 {
		t.Error("bandwidth should be measured")
	}
}

func TestVehicleValidation(t *testing.T) {
	_, client := testBrokerClient(t)
	if _, err := New(Config{Client: client}); !errors.Is(err, ErrNoRecords) {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
	if _, err := New(Config{Records: testRecords(1)}); err == nil {
		t.Error("want error for nil client")
	}
}

func TestFleetDistributesRecords(t *testing.T) {
	_, client := testBrokerClient(t)
	records := testRecords(10)
	f, err := NewFleet(4, records, func(int) stream.Client { return client }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Vehicles()) != 4 {
		t.Fatalf("fleet size = %d", len(f.Vehicles()))
	}
	// Vehicle IDs are 1..n and each replays a distinct slice.
	var total int
	for i, v := range f.Vehicles() {
		if v.cfg.ID != trace.CarID(i+1) {
			t.Errorf("vehicle %d has ID %d", i, v.cfg.ID)
		}
		total += len(v.cfg.Records)
	}
	if total != 10 {
		t.Errorf("fleet covers %d records, want 10", total)
	}

	if _, err := NewFleet(0, records, func(int) stream.Client { return client }, Config{}); err == nil {
		t.Error("want error for empty fleet")
	}
	if _, err := NewFleet(2, nil, func(int) stream.Client { return client }, Config{}); !errors.Is(err, ErrNoRecords) {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
}

func TestFleetRun(t *testing.T) {
	_, client := testBrokerClient(t)
	f, err := NewFleet(3, testRecords(9), func(int) stream.Client { return client }, Config{
		SendInterval: time.Millisecond,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if f.TotalSent() != 9 {
		t.Errorf("TotalSent = %d, want 9", f.TotalSent())
	}
	if f.TotalReceived() != 0 {
		t.Errorf("TotalReceived = %d with no RSU running", f.TotalReceived())
	}
}

// A paced vehicle responds to backpressure by decimating its send rate
// instead of erroring or retrying, then earns the rate back on sustained
// acceptance.
func TestVehiclePacingUnderBackpressure(t *testing.T) {
	// Keyed sends land on one partition; capacity 1 means every second
	// un-drained send is refused.
	b := stream.NewBroker(stream.BrokerConfig{FlowCapacity: 1})
	for _, topic := range []string{stream.TopicInData, stream.TopicOutData} {
		if err := b.CreateTopic(topic, 1); err != nil {
			t.Fatal(err)
		}
	}
	client := stream.NewInProcClient(b)
	v, err := New(Config{
		ID: 9, Client: client, Records: testRecords(4), Loop: true,
		Pacing: flow.PacerConfig{MaxDecimation: 8, RecoverAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First send is admitted; the queue is now full.
	if _, err := v.SendNext(0); err != nil {
		t.Fatal(err)
	}
	if v.Sent() != 1 {
		t.Fatalf("Sent = %d, want 1", v.Sent())
	}

	// Second send is refused: no error surfaces, the pacer backs off.
	if _, err := v.SendNext(1); err != nil {
		t.Fatalf("backpressured send must not error, got %v", err)
	}
	if v.Sent() != 1 {
		t.Errorf("refused send counted as sent")
	}
	if got := v.Pacer().Decimation(); got != 2 {
		t.Errorf("decimation after backpressure = %d, want 2", got)
	}
	if v.Pacer().Backpressured() != 1 {
		t.Errorf("Backpressured = %d, want 1", v.Pacer().Backpressured())
	}

	// At factor 2, the next sample is dropped locally — the broker sees no
	// traffic at all.
	before := b.BytesIn()
	if _, err := v.SendNext(2); err != nil {
		t.Fatal(err)
	}
	if b.BytesIn() != before {
		t.Error("decimated sample reached the broker")
	}
	if v.Pacer().Decimated() != 1 {
		t.Errorf("Decimated = %d, want 1", v.Pacer().Decimated())
	}

	// Drain the queue; a streak of accepted sends recovers full rate.
	drain := func() {
		t.Helper()
		c, err := stream.NewConsumer(client, stream.TopicInData, 0)
		if err != nil {
			t.Fatal(err)
		}
		msgs, _ := c.Poll(64)
		stream.RecycleMessages(msgs)
	}
	for i := 3; v.Pacer().Decimation() > 1 && i < 40; i++ {
		drain()
		if _, err := v.SendNext(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Pacer().Decimation(); got != 1 {
		t.Errorf("decimation never recovered: %d", got)
	}
}

// refusingClient fails the produces refuse picks (by 1-based produce
// count) and passes the rest through.
type refusingClient struct {
	stream.Client
	n      int
	refuse func(n int) error
}

func (c *refusingClient) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	c.n++
	if err := c.refuse(c.n); err != nil {
		return 0, 0, err
	}
	return c.Client.Produce(topic, partition, key, value)
}

// TestPacedSendAccountingCloses: every SendNext attempt of a paced
// vehicle was sent, decimated by its pacer, absorbed as backpressure, or
// returned as an error — the identity the scenario harness's fleet_*
// measurements rest on.
func TestPacedSendAccountingCloses(t *testing.T) {
	gated := stream.NewBroker(stream.BrokerConfig{FlowCapacity: 1})
	for _, topic := range []string{stream.TopicInData, stream.TopicOutData} {
		if err := gated.CreateTopic(topic, 1); err != nil {
			t.Fatal(err)
		}
	}
	_, open := testBrokerClient(t)
	linkDown := errors.New("link down")
	cases := []struct {
		name     string
		client   stream.Client
		wantErrs bool
	}{
		{"refusing gate", stream.NewInProcClient(gated), false},
		{"decimating pacer", &refusingClient{Client: open, refuse: func(n int) error {
			if n%3 == 0 {
				return flow.ErrBackpressure
			}
			return nil
		}}, false},
		{"erroring client", &refusingClient{Client: open, refuse: func(n int) error {
			if n%2 == 0 {
				return linkDown
			}
			return nil
		}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := New(Config{
				ID: 9, Client: tc.client, Records: testRecords(4), Loop: true,
				Pacing: flow.PacerConfig{MaxDecimation: 8, RecoverAfter: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			const attempts = 200
			var errs int64
			for i := 0; i < attempts; i++ {
				if _, err := v.SendNext(i); err != nil {
					errs++
				}
			}
			p := v.Pacer()
			if got := v.Sent() + p.Decimated() + p.Backpressured() + errs; got != attempts {
				t.Errorf("sent %d + decimated %d + backpressured %d + errors %d = %d, want %d",
					v.Sent(), p.Decimated(), p.Backpressured(), errs, got, attempts)
			}
			if tc.wantErrs != (errs > 0) || tc.wantErrs == (p.Decimated() > 0) {
				t.Errorf("errors %d, decimated %d: this row must exercise %s",
					errs, p.Decimated(), tc.name)
			}
		})
	}
}

// An unpaced vehicle surfaces backpressure as a send error (matchable via
// flow.ErrBackpressure) rather than silently dropping.
func TestVehicleUnpacedSurfacesBackpressure(t *testing.T) {
	b := stream.NewBroker(stream.BrokerConfig{FlowCapacity: 1})
	for _, topic := range []string{stream.TopicInData, stream.TopicOutData} {
		if err := b.CreateTopic(topic, 1); err != nil {
			t.Fatal(err)
		}
	}
	v, err := New(Config{ID: 9, Client: stream.NewInProcClient(b), Records: testRecords(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.SendNext(0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.SendNext(1); !errors.Is(err, flow.ErrBackpressure) {
		t.Errorf("got %v, want a backpressure error", err)
	}
}

// TestSendNextZeroAllocs pins the send path's allocation budget at
// nothing: SendNext encodes into the vehicle's own frame buffer, and the
// in-process broker copies the payload into its log's slab.
func TestSendNextZeroAllocs(t *testing.T) {
	_, client := testBrokerClient(t)
	v, err := New(Config{ID: 9, Client: client, Records: testRecords(3), Loop: true})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, serr := v.SendNext(i); serr != nil {
			t.Fatal(serr)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("SendNext: %v allocs/op, want 0", allocs)
	}
}

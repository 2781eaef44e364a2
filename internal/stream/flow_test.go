package stream

import (
	"errors"
	"testing"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
)

// Regression: nil-key round-robin produces must not land on partitions
// marked down while healthy ones remain.
func TestProduceNilKeySkipsDownPartitions(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic(TopicInData, 3); err != nil {
		t.Fatal(err)
	}
	b.SetPartitionDown(TopicInData, 1, true)

	counts := make(map[int32]int)
	for i := 0; i < 30; i++ {
		part, _, err := b.Produce(TopicInData, AutoPartition, nil, []byte("v"))
		if err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		counts[part]++
	}
	if counts[1] != 0 {
		t.Errorf("rotor placed %d messages on the down partition", counts[1])
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Errorf("healthy partitions not both used: %v", counts)
	}

	// Keyed produce keeps hash affinity even when the target is down: the
	// caller gets ErrPartitionDown rather than a silent re-route.
	key := []byte("vehicle-7")
	h := b.pickPartition(TopicInData, key, 3)
	b.SetPartitionDown(TopicInData, h, true)
	if _, _, err := b.Produce(TopicInData, AutoPartition, key, []byte("v")); !errors.Is(err, ErrPartitionDown) {
		t.Errorf("keyed produce to down partition: got %v, want ErrPartitionDown", err)
	}

	// With every partition down, the rotor falls through and Produce
	// surfaces ErrPartitionDown instead of spinning.
	for p := int32(0); p < 3; p++ {
		b.SetPartitionDown(TopicInData, p, true)
	}
	if _, _, err := b.Produce(TopicInData, AutoPartition, nil, []byte("v")); !errors.Is(err, ErrPartitionDown) {
		t.Errorf("all-down produce: got %v, want ErrPartitionDown", err)
	}
}

func TestFlowBackpressureAndFetchCredits(t *testing.T) {
	// Capacity 4 sheds telemetry from occupancy 3 (nine tenths) on.
	b := NewBroker(BrokerConfig{FlowCapacity: 4})
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := b.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
			t.Fatalf("produce %d under capacity: %v", i, err)
		}
	}
	_, _, err := b.Produce(TopicInData, 0, nil, []byte("t"))
	if !errors.Is(err, flow.ErrBackpressure) {
		t.Fatalf("over-capacity produce: got %v, want backpressure", err)
	}
	if hint, ok := flow.RetryAfter(err); !ok || hint <= 0 {
		t.Errorf("backpressure hint = %v, %v; want positive", hint, ok)
	}
	if st := b.FlowStats(TopicInData); st.Shed[flow.ClassTelemetry] != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed[flow.ClassTelemetry])
	}

	// Fetching drains the backlog and returns credits: produce succeeds
	// again.
	msgs, err := b.Fetch(TopicInData, 0, 0, 2)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("fetch: %d msgs, err %v", len(msgs), err)
	}
	RecycleMessages(msgs)
	for i := 0; i < 2; i++ {
		if _, _, err := b.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
			t.Fatalf("produce after drain: %v", err)
		}
	}
	if _, _, err := b.Produce(TopicInData, 0, nil, []byte("t")); !errors.Is(err, flow.ErrBackpressure) {
		t.Errorf("refilled partition should refuse again, got %v", err)
	}

	// Re-reading already-credited offsets must not double-release.
	msgs, _ = b.Fetch(TopicInData, 0, 0, 1)
	RecycleMessages(msgs)
	if occ := b.FlowStats(TopicInData).Occupancy; occ != 3 {
		t.Errorf("occupancy after re-read = %d, want 3", occ)
	}
}

// Warnings and summaries ride a soft bound: the gate tracks their
// occupancy but never refuses them.
func TestFlowWarningsAndSummariesNeverShed(t *testing.T) {
	b := NewBroker(BrokerConfig{FlowCapacity: 2})
	for _, topicName := range []string{TopicOutData, TopicCoData} {
		if err := b.CreateTopic(topicName, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, _, err := b.Produce(topicName, 0, nil, []byte("critical")); err != nil {
				t.Fatalf("%s produce %d over capacity: %v", topicName, i, err)
			}
		}
		st := b.FlowStats(topicName)
		if st.ShedTotal() != 0 {
			t.Errorf("%s shed %d critical messages", topicName, st.ShedTotal())
		}
		if st.Occupancy != 10 {
			t.Errorf("%s occupancy = %d, want 10 (soft bound exceeded)", topicName, st.Occupancy)
		}
	}
}

// Retention eviction returns the credits of messages no reader claimed,
// so an unconsumed partition cannot leak occupancy forever.
func TestFlowEvictionReturnsCredits(t *testing.T) {
	b := NewBroker(BrokerConfig{FlowCapacity: 100, MaxRetainedPerPartition: 8})
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := b.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
	}
	if occ := b.FlowStats(TopicInData).Occupancy; occ > 8 {
		t.Errorf("occupancy = %d after eviction, want <= retained bound 8", occ)
	}
}

func TestCloneBrokerReseatsOccupancy(t *testing.T) {
	cfg := BrokerConfig{FlowCapacity: 10} // telemetry sheds from occupancy 9
	b := NewBroker(cfg)
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := b.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
			t.Fatal(err)
		}
	}
	clone, err := cloneBroker(cfg, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if occ := clone.FlowStats(TopicInData).Occupancy; occ != 6 {
		t.Fatalf("clone occupancy = %d, want 6", occ)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := clone.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
			t.Fatalf("produce %d into the clone's headroom: %v", i, err)
		}
	}
	if _, _, err := clone.Produce(TopicInData, 0, nil, []byte("t")); !errors.Is(err, flow.ErrBackpressure) {
		t.Errorf("clone over capacity: got %v, want backpressure", err)
	}
	// Draining the cloned backlog returns its credits.
	msgs, err := clone.Fetch(TopicInData, 0, 0, 10)
	if err != nil || len(msgs) != 9 {
		t.Fatalf("fetch clone: %d msgs, err %v", len(msgs), err)
	}
	RecycleMessages(msgs)
	if occ := clone.FlowStats(TopicInData).Occupancy; occ != 0 {
		t.Errorf("occupancy after full drain = %d, want 0", occ)
	}
}

// Backpressure must survive the TCP hop: the producer-side error matches
// flow.ErrBackpressure and carries the broker's retry-after hint.
func TestTCPBackpressureRoundTrip(t *testing.T) {
	b := NewBroker(BrokerConfig{FlowCapacity: 1})
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, _, err := client.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Produce(TopicInData, 0, nil, []byte("t"))
	if !errors.Is(err, flow.ErrBackpressure) {
		t.Fatalf("remote over-capacity produce: got %v, want backpressure", err)
	}
	hint, ok := flow.RetryAfter(err)
	if !ok {
		t.Fatalf("remote backpressure lost its retry-after hint: %v", err)
	}
	if hint < flow.DefaultRetryHint {
		t.Errorf("remote hint = %v, want >= the base %v", hint, flow.DefaultRetryHint)
	}
}

// A RetryClient treats backpressure as a broker verdict: one attempt, no
// reconnect storm against an overloaded RSU.
func TestRetryClientDoesNotBlindRetryBackpressure(t *testing.T) {
	if !brokerError(flow.ErrBackpressure) {
		t.Fatal("backpressure must classify as a broker error, not a transport fault")
	}

	b := NewBroker(BrokerConfig{FlowCapacity: 1})
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := DialRetry(srv.Addr(), 5, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	slept := 0
	rc.sleep = func(time.Duration) { slept++ }

	if _, _, err := rc.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Produce(TopicInData, 0, nil, []byte("t")); !errors.Is(err, flow.ErrBackpressure) {
		t.Fatalf("got %v, want backpressure", err)
	}
	if slept != 0 {
		t.Errorf("retry client slept %d times on a backpressure verdict", slept)
	}
}

// Flow metrics surface on the broker's registry: aggregate admission
// counters plus a per-topic occupancy gauge summed over partitions.
func TestFlowMetricsOnRegistry(t *testing.T) {
	reg := obsv.NewRegistry()
	// Capacity 10 sheds telemetry at occupancy 9.
	b := NewBroker(BrokerConfig{FlowCapacity: 10, Metrics: reg})
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, _, err := b.Produce(TopicInData, 0, nil, []byte("t")); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := b.Produce(TopicInData, 0, nil, []byte("t"))
	if !errors.Is(err, flow.ErrBackpressure) {
		t.Fatalf("got %v, want backpressure", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["flow.IN-DATA.admitted"]; got != 9 {
		t.Errorf("admitted counter = %d, want 9", got)
	}
	if got := snap.Counters["flow.IN-DATA.shed.telemetry"]; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := snap.Gauges["flow.IN-DATA.occupancy"]; got != 9 {
		t.Errorf("occupancy gauge = %d, want 9 (partition sum)", got)
	}
}

package stream

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic(TopicInData, DefaultPartitions); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCreateTopic(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	// Idempotent with identical partitions.
	if err := b.CreateTopic("t", 3); err != nil {
		t.Errorf("idempotent create failed: %v", err)
	}
	if err := b.CreateTopic("t", 5); !errors.Is(err, ErrTopicExists) {
		t.Errorf("err = %v, want ErrTopicExists", err)
	}
	if err := b.CreateTopic("", 3); !errors.Is(err, ErrEmptyTopicName) {
		t.Errorf("err = %v, want ErrEmptyTopicName", err)
	}
	if err := b.CreateTopic("bad", 0); err == nil {
		t.Error("want error for 0 partitions")
	}
	if got := b.Topics(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Topics = %v", got)
	}
	n, err := b.PartitionCount("t")
	if err != nil || n != 3 {
		t.Errorf("PartitionCount = %d, %v", n, err)
	}
	if _, err := b.PartitionCount("nope"); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("err = %v, want ErrUnknownTopic", err)
	}
}

func TestProduceFetchRoundTrip(t *testing.T) {
	b := newTestBroker(t)
	part, off, err := b.Produce(TopicInData, 0, []byte("car-1"), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if part != 0 || off != 0 {
		t.Errorf("part=%d off=%d", part, off)
	}
	msgs, err := b.Fetch(TopicInData, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Value) != "hello" || string(msgs[0].Key) != "car-1" {
		t.Fatalf("msgs = %+v", msgs)
	}
	if msgs[0].Offset != 0 || msgs[0].Topic != TopicInData {
		t.Errorf("metadata = %+v", msgs[0])
	}
	if msgs[0].AppendedAt.IsZero() {
		t.Error("AppendedAt not stamped")
	}
}

func TestProduceErrors(t *testing.T) {
	b := newTestBroker(t)
	if _, _, err := b.Produce("nope", 0, nil, []byte("x")); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("err = %v, want ErrUnknownTopic", err)
	}
	if _, _, err := b.Produce(TopicInData, 99, nil, []byte("x")); !errors.Is(err, ErrBadPartition) {
		t.Errorf("err = %v, want ErrBadPartition", err)
	}
	huge := make([]byte, MaxMessageSize+1)
	if _, _, err := b.Produce(TopicInData, 0, nil, huge); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("err = %v, want ErrValueTooLarge", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Produce(TopicInData, 0, nil, []byte("x")); !errors.Is(err, ErrBrokerClosed) {
		t.Errorf("err = %v, want ErrBrokerClosed", err)
	}
	if _, err := b.Fetch(TopicInData, 0, 0, 1); !errors.Is(err, ErrBrokerClosed) {
		t.Errorf("err = %v, want ErrBrokerClosed", err)
	}
	if err := b.CreateTopic("late", 1); !errors.Is(err, ErrBrokerClosed) {
		t.Errorf("err = %v, want ErrBrokerClosed", err)
	}
}

func TestKeyHashPartitioningStable(t *testing.T) {
	b := newTestBroker(t)
	key := []byte("car-42")
	first, _, err := b.Produce(TopicInData, AutoPartition, key, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		part, _, err := b.Produce(TopicInData, AutoPartition, key, []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		if part != first {
			t.Fatalf("same key landed on partitions %d and %d", first, part)
		}
	}
}

func TestNilKeyRoundRobinSpreads(t *testing.T) {
	b := newTestBroker(t)
	seen := make(map[int32]bool)
	for i := 0; i < 30; i++ {
		part, _, err := b.Produce(TopicInData, AutoPartition, nil, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		seen[part] = true
	}
	if len(seen) != DefaultPartitions {
		t.Errorf("round robin reached %d partitions, want %d", len(seen), DefaultPartitions)
	}
}

func TestOffsetsMonotonicPerPartition(t *testing.T) {
	b := newTestBroker(t)
	var last [DefaultPartitions]int64
	for i := range last {
		last[i] = -1
	}
	for i := 0; i < 300; i++ {
		part, off, err := b.Produce(TopicInData, AutoPartition, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if off != last[part]+1 {
			t.Fatalf("partition %d: offset %d after %d", part, off, last[part])
		}
		last[part] = off
	}
}

func TestFetchBeyondHighWatermark(t *testing.T) {
	b := newTestBroker(t)
	_, _, _ = b.Produce(TopicInData, 0, nil, []byte("x"))
	msgs, err := b.Fetch(TopicInData, 0, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Errorf("fetch past HWM returned %d messages", len(msgs))
	}
	hwm, err := b.HighWaterMark(TopicInData, 0)
	if err != nil || hwm != 1 {
		t.Errorf("HWM = %d, %v", hwm, err)
	}
}

func TestRetentionTruncation(t *testing.T) {
	b := NewBroker(BrokerConfig{MaxRetainedPerPartition: 10})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, _, err := b.Produce("t", 0, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Old offsets were truncated; fetching from 0 resumes at the base.
	msgs, err := b.Fetch("t", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 || len(msgs) > 11 {
		t.Fatalf("retained %d messages, want <= 11", len(msgs))
	}
	// Offsets must still be the original ones (stable across truncation).
	if msgs[len(msgs)-1].Offset != 24 {
		t.Errorf("last offset = %d, want 24", msgs[len(msgs)-1].Offset)
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Offset != msgs[i-1].Offset+1 {
			t.Fatal("offsets not contiguous after truncation")
		}
	}
}

func TestPartitionDownInjection(t *testing.T) {
	b := newTestBroker(t)
	b.SetPartitionDown(TopicInData, 1, true)
	if _, _, err := b.Produce(TopicInData, 1, nil, []byte("x")); !errors.Is(err, ErrPartitionDown) {
		t.Errorf("err = %v, want ErrPartitionDown", err)
	}
	if _, err := b.Fetch(TopicInData, 1, 0, 1); !errors.Is(err, ErrPartitionDown) {
		t.Errorf("err = %v, want ErrPartitionDown", err)
	}
	// Other partitions keep working.
	if _, _, err := b.Produce(TopicInData, 0, nil, []byte("x")); err != nil {
		t.Errorf("healthy partition failed: %v", err)
	}
	b.SetPartitionDown(TopicInData, 1, false)
	if _, _, err := b.Produce(TopicInData, 1, nil, []byte("x")); err != nil {
		t.Errorf("recovered partition failed: %v", err)
	}
}

func TestConcurrentProduceFetch(t *testing.T) {
	b := newTestBroker(t)
	const producers = 8
	const perProducer = 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("car-%d", p))
			for i := 0; i < perProducer; i++ {
				if _, _, err := b.Produce(TopicInData, AutoPartition, key, []byte("v")); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	var total int
	for part := int32(0); part < DefaultPartitions; part++ {
		hwm, err := b.HighWaterMark(TopicInData, part)
		if err != nil {
			t.Fatal(err)
		}
		total += int(hwm)
	}
	if total != producers*perProducer {
		t.Errorf("total messages = %d, want %d", total, producers*perProducer)
	}
	if b.BytesIn() <= 0 {
		t.Error("BytesIn not accounted")
	}
}

func TestMessageCloneIndependence(t *testing.T) {
	m := Message{Key: []byte("k"), Value: []byte("v")}
	c := m.Clone()
	c.Key[0] = 'X'
	c.Value[0] = 'Y'
	if m.Key[0] != 'k' || m.Value[0] != 'v' {
		t.Error("Clone aliases original buffers")
	}
	if m.WireSize() <= 0 {
		t.Error("WireSize must be positive")
	}
}

// TestProduceBatchRunsAndRefusals: a batch goes to the logs as runs of
// consecutive accepted records for one partition; a partition switch or
// a refused record in the middle must not shift anyone's offset or bytes.
func TestProduceBatchRunsAndRefusals(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	// Two keys on different partitions.
	keyOn := map[int32][]byte{}
	for i := 0; len(keyOn) < 2; i++ {
		k := []byte(fmt.Sprintf("car-%d", i))
		keyOn[b.pickPartition("t", k, 2)] = k
	}
	tooBig := make([]byte, MaxMessageSize+1)
	parts := []int32{0, 0, 1, 1, -1, 1, 0, -1, 0}
	recs := make([]BatchRecord, len(parts))
	for i, p := range parts {
		if p < 0 {
			recs[i] = BatchRecord{Key: keyOn[0], Value: tooBig}
			continue
		}
		recs[i] = BatchRecord{Key: keyOn[p], Value: []byte(fmt.Sprintf("v%d", i))}
	}
	next := map[int32]int64{}
	reported := 0
	err := b.ProduceBatch("t", AutoPartition, recs, func(i int, part int32, off int64, err error) {
		if i != reported {
			t.Fatalf("outcome for record %d reported at position %d", i, reported)
		}
		reported++
		if parts[i] < 0 {
			if !errors.Is(err, ErrValueTooLarge) {
				t.Fatalf("record %d: %v, want ErrValueTooLarge", i, err)
			}
			return
		}
		if err != nil || part != parts[i] || off != next[part] {
			t.Fatalf("record %d: (%d, %d, %v), want (%d, %d)", i, part, off, err, parts[i], next[part])
		}
		next[part]++
		got, ferr := b.Fetch("t", part, off, 1)
		if ferr != nil || len(got) != 1 || string(got[0].Value) != fmt.Sprintf("v%d", i) || !bytes.Equal(got[0].Key, keyOn[part]) {
			t.Fatalf("record %d reads back as %+v (%v)", i, got, ferr)
		}
	})
	if err != nil || reported != len(recs) {
		t.Fatalf("batch: %v, %d of %d outcomes", err, reported, len(recs))
	}
}

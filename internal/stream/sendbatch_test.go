package stream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cad3/internal/flow"
)

// ackRecorder notes which produce entry points a producer used and at what
// ack level, on top of a replicated client.
type ackRecorder struct {
	*ReplicatedClient
	calls []string
}

func (c *ackRecorder) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	c.calls = append(c.calls, "produce")
	return c.ReplicatedClient.Produce(topic, partition, key, value)
}

func (c *ackRecorder) ProduceAcks(topic string, partition int32, key, value []byte, acks AckLevel) (int32, int64, error) {
	c.calls = append(c.calls, "produce@"+acks.String())
	return c.ReplicatedClient.ProduceAcks(topic, partition, key, value, acks)
}

func (c *ackRecorder) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	c.calls = append(c.calls, fmt.Sprintf("batch[%d]", len(recs)))
	return c.ReplicatedClient.ProduceBatchInto(topic, partition, recs, res)
}

func (c *ackRecorder) ProduceBatchAcksInto(topic string, partition int32, recs []BatchRecord, res []BatchResult, acks AckLevel) error {
	c.calls = append(c.calls, fmt.Sprintf("batch[%d]@%s", len(recs), acks))
	return c.ReplicatedClient.ProduceBatchAcksInto(topic, partition, recs, res, acks)
}

func batchOf(n int) ([]BatchRecord, []BatchResult) {
	recs := make([]BatchRecord, n)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte(fmt.Sprintf("car-%d", i%4)), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	return recs, make([]BatchResult, n)
}

func TestSendBatchValidation(t *testing.T) {
	p, err := NewProducer(newTestBrokerClient(t, BrokerConfig{}), TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := batchOf(3)
	if err := p.SendBatch(recs, make([]BatchResult, 2)); !errors.Is(err, errBatchSize) {
		t.Errorf("SendBatch with 3 records and 2 results = %v, want the length-mismatch error", err)
	}
	if err := p.SendBatch(nil, nil); err != nil || p.Sent() != 0 {
		t.Errorf("empty SendBatch = %v with %d sent, want a no-op", err, p.Sent())
	}
}

// TestSendBatchMatchesSend holds a batch against the same records sent one
// by one: same partitions, consecutive offsets in batch order, same
// counters, and per-record refusals shaped as Send shapes them.
func TestSendBatchMatchesSend(t *testing.T) {
	one, err := NewProducer(newTestBrokerClient(t, BrokerConfig{}), TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	broker := newTestBroker(t)
	many, err := NewProducer(NewInProcClient(broker), TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	recs, res := batchOf(20)
	if err := many.SendBatch(recs, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		part, off, err := one.Send(r.Key, r.Value)
		if err != nil || res[i].Err != nil || res[i].Partition != part || res[i].Offset != off {
			t.Fatalf("record %d: batch answered %d@%d (%v), Send %d@%d (%v)",
				i, res[i].Partition, res[i].Offset, res[i].Err, part, off, err)
		}
	}
	if many.Sent() != one.Sent() || many.Bytes() != one.Bytes() {
		t.Errorf("batch producer counted %d msgs / %d B, per-record producer %d / %d",
			many.Sent(), many.Bytes(), one.Sent(), one.Bytes())
	}

	// A partition down refuses its records only; the rest land and count.
	broker.SetPartitionDown(TopicInData, res[0].Partition, true)
	sent := many.Sent()
	if err := many.SendBatch(recs, res); err != nil {
		t.Fatal(err)
	}
	var refused int64
	for i := range res {
		if res[i].Err == nil {
			continue
		}
		refused++
		if !errors.Is(res[i].Err, ErrPartitionDown) || !strings.HasPrefix(res[i].Err.Error(), `produce to "IN-DATA": `) {
			t.Fatalf("record %d refused with %v, want Send's wrapped partition-down error", i, res[i].Err)
		}
	}
	if refused == 0 || refused == int64(len(recs)) || many.Sent() != sent+int64(len(recs))-refused {
		t.Errorf("%d of %d refused, Sent moved %d -> %d", refused, len(recs), sent, many.Sent())
	}
}

// TestSendBatchBackpressureUnwrapped: a paced refusal inside a batch stays
// the bare sentinel with its hint, on a client that batches and on one
// that does not.
func TestSendBatchBackpressureUnwrapped(t *testing.T) {
	for _, batching := range []bool{true, false} {
		b := NewBroker(BrokerConfig{FlowCapacity: 4})
		if err := b.CreateTopic(TopicInData, 1); err != nil {
			t.Fatal(err)
		}
		var client Client = NewInProcClient(b)
		if !batching {
			client = clientOnly{client}
		}
		p, err := NewProducer(client, TopicInData)
		if err != nil {
			t.Fatal(err)
		}
		recs, res := batchOf(10)
		if err := p.SendBatch(recs, res); err != nil {
			t.Fatal(err)
		}
		last := res[len(res)-1]
		if !errors.Is(last.Err, flow.ErrBackpressure) || strings.Contains(last.Err.Error(), "produce to") || last.RetryAfter <= 0 {
			t.Errorf("batching=%v: past the gate's capacity got %v (retry after %v), want bare backpressure with a hint",
				batching, last.Err, last.RetryAfter)
		}
		var admitted int64
		for i := range res {
			if res[i].Err == nil {
				admitted++
			}
		}
		if admitted == 0 || p.Sent() != admitted {
			t.Errorf("batching=%v: Sent = %d, want the %d the gate admitted", batching, p.Sent(), admitted)
		}
	}
}

// TestSendBatchAckLevel: the producer's ack level picks the batch entry
// point, and a client that cannot batch at that level gets per-record
// produces at it.
func TestSendBatchAckLevel(t *testing.T) {
	newSet := func() *ReplicaSet {
		rs, err := NewReplicaSet(ReplicaSetConfig{},
			Replica{ID: "r1", Broker: NewBroker(BrokerConfig{})},
			Replica{ID: "r2", Broker: NewBroker(BrokerConfig{})})
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.CreateTopic("t", 2); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	recs, res := batchOf(5)

	rec := &ackRecorder{ReplicatedClient: newSet().Client(AckLeader)}
	all, err := NewProducerAcks(rec, "t", AckAll)
	if err != nil {
		t.Fatal(err)
	}
	if err := all.SendBatch(recs, res); err != nil {
		t.Fatal(err)
	}
	leader, err := NewProducer(rec, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.SendBatch(recs, res); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rec.calls, " "); got != "batch[5]@all batch[5]" {
		t.Errorf("entry points used: %q, want one ack-level batch then one plain batch", got)
	}

	// An AckClient that cannot batch: five produces, each at AckAll.
	type ackOnly struct{ AckClient }
	rec2 := &ackRecorder{ReplicatedClient: newSet().Client(AckLeader)}
	narrow, err := NewProducerAcks(ackOnly{rec2}, "t", AckAll)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.SendBatch(recs, res); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rec2.calls, " "); got != strings.TrimSpace(strings.Repeat("produce@all ", 5)) {
		t.Errorf("entry points used: %q, want five produces at acks=all", got)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Errorf("record %d: %v", i, res[i].Err)
		}
	}
}

// TestSendBatchTransportError: a dead connection fails the batch as a
// whole and counts nothing.
func TestSendBatchTransportError(t *testing.T) {
	b := newTestBroker(t)
	tc := dialTest(t, b, ServerConfig{}, DialConfig{})
	p, err := NewProducer(tc, TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	_ = tc.Close()
	recs, res := batchOf(3)
	err = p.SendBatch(recs, res)
	if !errors.Is(err, ErrClientClosed) || !strings.HasPrefix(err.Error(), `produce batch to "IN-DATA": `) || p.Sent() != 0 {
		t.Errorf("SendBatch over a closed connection = %v with %d sent", err, p.Sent())
	}
}

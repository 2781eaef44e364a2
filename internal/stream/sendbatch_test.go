package stream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cad3/internal/flow"
)

// ackRecorder notes which produce entry points a producer used, on top of
// a replicated client.
type ackRecorder struct {
	*ReplicatedClient
	calls []string
}

func (c *ackRecorder) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	c.calls = append(c.calls, "produce")
	return c.ReplicatedClient.Produce(topic, partition, key, value)
}

func (c *ackRecorder) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	c.calls = append(c.calls, fmt.Sprintf("batch[%d]", len(recs)))
	return c.ReplicatedClient.ProduceBatchInto(topic, partition, recs, res)
}

func batchOf(n int) ([]BatchRecord, []BatchResult) {
	recs := make([]BatchRecord, n)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte(fmt.Sprintf("car-%d", i%4)), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	return recs, make([]BatchResult, n)
}

// held counts the records a broker holds in IN-DATA.
func held(t *testing.T, b *Broker) int64 {
	t.Helper()
	var n int64
	for p := int32(0); p < DefaultPartitions; p++ {
		hwm, err := b.HighWaterMark(TopicInData, p)
		if err != nil {
			t.Fatal(err)
		}
		n += hwm
	}
	return n
}

// sentBy counts the records a batch answered as sent and their payload
// bytes.
func sentBy(recs []BatchRecord, res []BatchResult) (msgs, bytes int64) {
	for i := range res {
		if res[i].Err == nil {
			msgs, bytes = msgs+1, bytes+int64(len(recs[i].Key)+len(recs[i].Value))
		}
	}
	return msgs, bytes
}

func TestSendBatchValidation(t *testing.T) {
	b := newTestBroker(t)
	p, err := NewProducer(NewInProcClient(b), TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := batchOf(3)
	if err := p.SendBatch(recs, make([]BatchResult, 2)); !errors.Is(err, errBatchSize) {
		t.Errorf("SendBatch with 3 records and 2 results = %v, want the length-mismatch error", err)
	}
	if err := p.SendBatch(nil, nil); err != nil || held(t, b) != 0 {
		t.Errorf("empty SendBatch = %v with %d sent, want a no-op", err, held(t, b))
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
	var oneMsgs, oneBytes int64
	for i, r := range recs {
		part, off, err := one.Send(r.Key, r.Value)
		if err != nil || res[i].Err != nil || res[i].Partition != part || res[i].Offset != off {
			t.Fatalf("record %d: batch answered %d@%d (%v), Send %d@%d (%v)",
				i, res[i].Partition, res[i].Offset, res[i].Err, part, off, err)
		}
		oneMsgs, oneBytes = oneMsgs+1, oneBytes+int64(len(r.Key)+len(r.Value))
	}
	if manyMsgs, manyBytes := sentBy(recs, res); manyMsgs != oneMsgs || manyBytes != oneBytes {
		t.Errorf("batch producer sent %d msgs / %d B, per-record producer %d / %d",
			manyMsgs, manyBytes, oneMsgs, oneBytes)
	}

	// A partition down refuses its records only; the rest land and count.
	broker.SetPartitionDown(TopicInData, res[0].Partition, true)
	sent := held(t, broker)
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
	if refused == 0 || refused == int64(len(recs)) || held(t, broker) != sent+int64(len(recs))-refused {
		t.Errorf("%d of %d refused, the broker's records moved %d -> %d", refused, len(recs), sent, held(t, broker))
	}
}

// TestSendBatchBackpressureUnwrapped: a paced refusal inside a batch stays
// the bare sentinel with its hint, on a client that batches and on one
// that writes a record at a time.
func TestSendBatchBackpressureUnwrapped(t *testing.T) {
	for _, batching := range []bool{true, false} {
		b := NewBroker(BrokerConfig{FlowCapacity: 4})
		if err := b.CreateTopic(TopicInData, 1); err != nil {
			t.Fatal(err)
		}
		var client Client = NewInProcClient(b)
		if !batching {
			client = inTurn{Client: client}
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
		if stored, _ := b.HighWaterMark(TopicInData, 0); admitted == 0 || stored != admitted {
			t.Errorf("batching=%v: %d records stored, want the %d the gate admitted", batching, stored, admitted)
		}
	}
}

// TestSendBatchAckLevel: a batch settles at its client's ack level, in one
// batch call on a client that takes batches and in one produce a record on
// one that writes them in turn. At acks=all every record is committed when
// SendBatch returns; at acks=1 none is until the followers catch up.
func TestSendBatchAckLevel(t *testing.T) {
	for _, acks := range []AckLevel{AckAll, AckLeader} {
		for _, whole := range []bool{true, false} {
			rs, err := NewReplicaSet(ReplicaSetConfig{},
				Replica{ID: "r1", Broker: NewBroker(BrokerConfig{})},
				Replica{ID: "r2", Broker: NewBroker(BrokerConfig{})})
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.CreateTopic("t", 2); err != nil {
				t.Fatal(err)
			}
			rec := &ackRecorder{ReplicatedClient: rs.Client(acks)}
			var client Client = rec
			want := "batch[5]"
			if !whole {
				client = inTurn{Client: rec}
				want = strings.TrimSpace(strings.Repeat("produce ", 5))
			}
			p, err := NewProducer(client, "t")
			if err != nil {
				t.Fatal(err)
			}
			recs, res := batchOf(5)
			if err := p.SendBatch(recs, res); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("acks=%s whole=%v", acks, whole)
			if got := strings.Join(rec.calls, " "); got != want {
				t.Errorf("%s: entry points used: %q, want %q", what, got, want)
			}
			for i := range res {
				if res[i].Err != nil {
					t.Fatalf("%s: record %d: %v", what, i, res[i].Err)
				}
				committed, err := rs.CommittedOffset("t", res[i].Partition)
				if err != nil {
					t.Fatal(err)
				}
				if (res[i].Offset < committed) != (acks == AckAll) {
					t.Errorf("%s: record %d at offset %d, committed offset %d", what, i, res[i].Offset, committed)
				}
			}
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
	if !errors.Is(err, ErrClientClosed) || !strings.HasPrefix(err.Error(), `produce batch to "IN-DATA": `) || held(t, b) != 0 {
		t.Errorf("SendBatch over a closed connection = %v with %d sent", err, held(t, b))
	}
}

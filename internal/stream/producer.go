package stream

import (
	"errors"
	"fmt"
	"sync/atomic"

	"cad3/internal/flow"
)

// Producer publishes messages to one topic through a Client. It is safe
// for concurrent use. Each emulated vehicle runs one producer (the paper's
// "Kafka Producers" on PC1).
//
// Send writes one record and waits for its answer; SendBatch writes many
// and waits once, which is how the RSU node writes a micro-batch's
// warnings (Spark writes OUT-DATA once per batch, not once per row).
//
// A producer carries an AckLevel. The default AckLeader sends through the
// plain Client Produce path unchanged; AckNone and AckAll require a
// client that understands durability levels (AckClient — the replicated
// cluster's client). The client and the level are fixed at construction;
// surviving a broker failover is the replicated client's job, behind the
// one Client it hands out.
type Producer struct {
	client Client
	acks   AckLevel
	topic  string

	sent  atomic.Int64
	bytes atomic.Int64
}

// NewProducer binds a producer to a topic at AckLeader. The topic must
// already exist (or be created by the caller); Send surfaces
// ErrUnknownTopic otherwise.
func NewProducer(client Client, topicName string) (*Producer, error) {
	return NewProducerAcks(client, topicName, AckLeader)
}

// NewProducerAcks binds a producer at an explicit durability level. Any
// level other than AckLeader requires an AckClient.
func NewProducerAcks(client Client, topicName string, acks AckLevel) (*Producer, error) {
	if client == nil {
		return nil, fmt.Errorf("stream: producer requires a client")
	}
	if topicName == "" {
		return nil, ErrEmptyTopicName
	}
	if acks != AckLeader {
		if _, ok := client.(AckClient); !ok {
			return nil, fmt.Errorf("stream: acks=%s requires an AckClient, got %T", acks, client)
		}
	}
	return &Producer{client: client, topic: topicName, acks: acks}, nil
}

// produce routes one record through the bound client at the producer's
// ack level.
func (p *Producer) produce(partition int32, key, value []byte) (int32, int64, error) {
	if p.acks != AckLeader {
		if ac, ok := p.client.(AckClient); ok {
			return ac.ProduceAcks(p.topic, partition, key, value, p.acks)
		}
	}
	return p.client.Produce(p.topic, partition, key, value)
}

// wrapSendErr names the topic on a failed send. Backpressure and
// circuit-open pass through untouched: both are part of the
// allocation-free fast path (they fire exactly when the system is
// overloaded or the link is down) and drive the sender's pacer.
func (p *Producer) wrapSendErr(err error) error {
	if errors.Is(err, flow.ErrBackpressure) || errors.Is(err, flow.ErrCircuitOpen) {
		return err
	}
	return fmt.Errorf("produce to %q: %w", p.topic, err)
}

// Send publishes value under key with automatic partitioning and returns
// the (partition, offset) the broker assigned.
func (p *Producer) Send(key, value []byte) (int32, int64, error) {
	part, off, err := p.produce(AutoPartition, key, value)
	if err != nil {
		return 0, 0, p.wrapSendErr(err)
	}
	p.sent.Add(1)
	p.bytes.Add(int64(len(key) + len(value)))
	return part, off, nil
}

// SendBatch publishes recs in order with automatic partitioning and
// answers each in res (same length): partition and offset, or the error
// Send would have returned. A client
// that can batch at the producer's ack level gets the lot in one call —
// one broker lock and clock read in process, one reqProduceBatch frame
// (which must fit the peer's frame limit) over TCP. Any other client is
// sent one record at a time, so a wrapper that injects faults per produce
// keeps seeing every produce. The returned error is a transport failure
// of the whole batch: res is meaningless and nothing counts as sent.
func (p *Producer) SendBatch(recs []BatchRecord, res []BatchResult) error {
	if len(res) != len(recs) {
		return errBatchSize
	}
	if len(recs) == 0 {
		return nil
	}
	var err error
	if ac, ok := p.client.(AckBatchClient); ok && p.acks != AckLeader {
		err = ac.ProduceBatchAcksInto(p.topic, AutoPartition, recs, res, p.acks)
	} else if bc, ok := p.client.(BatchClient); ok && p.acks == AckLeader {
		err = bc.ProduceBatchInto(p.topic, AutoPartition, recs, res)
	} else {
		for i := range recs {
			part, off, perr := p.produce(AutoPartition, recs[i].Key, recs[i].Value)
			res[i] = BatchResult{Partition: part, Offset: off, Err: perr}
			if hint, ok := flow.RetryAfter(perr); ok {
				res[i].RetryAfter = hint
			}
		}
	}
	if err != nil {
		return fmt.Errorf("produce batch to %q: %w", p.topic, err)
	}
	var sent, bytes int64
	for i := range res {
		if res[i].Err != nil {
			res[i].Err = p.wrapSendErr(res[i].Err)
			continue
		}
		sent++
		bytes += int64(len(recs[i].Key) + len(recs[i].Value))
	}
	p.sent.Add(sent)
	p.bytes.Add(bytes)
	return nil
}

// SendToPartition publishes to an explicit partition.
func (p *Producer) SendToPartition(partition int32, key, value []byte) (int64, error) {
	_, off, err := p.produce(partition, key, value)
	if err != nil {
		if errors.Is(err, flow.ErrBackpressure) || errors.Is(err, flow.ErrCircuitOpen) {
			return 0, err
		}
		return 0, fmt.Errorf("produce to %q/%d: %w", p.topic, partition, err)
	}
	p.sent.Add(1)
	p.bytes.Add(int64(len(key) + len(value)))
	return off, nil
}

// Acks returns the producer's durability level.
func (p *Producer) Acks() AckLevel { return p.acks }

// Sent returns the number of successfully published messages.
func (p *Producer) Sent() int64 { return p.sent.Load() }

// Bytes returns the cumulative payload bytes published.
func (p *Producer) Bytes() int64 { return p.bytes.Load() }

// Topic returns the topic the producer publishes to.
func (p *Producer) Topic() string { return p.topic }

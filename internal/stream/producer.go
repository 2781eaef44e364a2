package stream

import (
	"errors"
	"fmt"

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
// The durability level is the client's (ReplicaSet.Client takes one), and
// the client is fixed at construction: surviving a broker failover is the
// replicated client's job, behind the one Client it hands out.
type Producer struct {
	client Client
	topic  string
}

// NewProducer binds a producer to a topic. The topic must already exist
// (or be created by the caller); Send surfaces ErrUnknownTopic otherwise.
func NewProducer(client Client, topicName string) (*Producer, error) {
	if client == nil {
		return nil, fmt.Errorf("stream: producer requires a client")
	}
	if topicName == "" {
		return nil, ErrEmptyTopicName
	}
	return &Producer{client: client, topic: topicName}, nil
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
	part, off, err := p.client.Produce(p.topic, AutoPartition, key, value)
	if err != nil {
		return 0, 0, p.wrapSendErr(err)
	}
	return part, off, nil
}

// SendBatch publishes recs in order with automatic partitioning and
// answers each in res (same length): partition and offset, or the error
// Send would have returned. The client gets the lot in one call — one
// broker lock and clock read in process, one reqProduceBatch frame (which
// must fit the peer's frame limit) over TCP, one record at a time through
// a wrapper that injects faults per produce. The returned error is a
// transport failure of the whole batch: res is meaningless.
func (p *Producer) SendBatch(recs []BatchRecord, res []BatchResult) error {
	if len(res) != len(recs) {
		return errBatchSize
	}
	if len(recs) == 0 {
		return nil
	}
	if err := p.client.ProduceBatchInto(p.topic, AutoPartition, recs, res); err != nil {
		return fmt.Errorf("produce batch to %q: %w", p.topic, err)
	}
	for i := range res {
		if res[i].Err != nil {
			res[i].Err = p.wrapSendErr(res[i].Err)
		}
	}
	return nil
}

package stream

import "cad3/internal/flow"

// Client abstracts access to a broker: the in-process client binds
// directly, the TCP client speaks the wire protocol. Producers and
// consumers are written against this interface so the same pipeline code
// runs in simulation and over a real network.
type Client interface {
	// CreateTopic creates a topic (no-op if it exists identically).
	CreateTopic(name string, partitions int) error
	// Produce appends a message; partition AutoPartition auto-selects.
	Produce(topicName string, partition int32, key, value []byte) (int32, int64, error)
	// Fetch reads up to max messages from offset.
	Fetch(topicName string, partition int32, offset int64, max int) ([]Message, error)
	// PartitionCount returns the topic's partition count.
	PartitionCount(topicName string) (int, error)
	// ListTopics returns the broker's topic names, sorted.
	ListTopics() ([]string, error)
	// Close releases the client.
	Close() error
}

// InProcClient is a Client bound directly to an in-memory Broker.
type InProcClient struct {
	broker *Broker
}

var _ Client = (*InProcClient)(nil)
var _ BatchClient = (*InProcClient)(nil)

// NewInProcClient binds a client to a broker.
func NewInProcClient(b *Broker) *InProcClient { return &InProcClient{broker: b} }

// CreateTopic implements Client.
func (c *InProcClient) CreateTopic(name string, partitions int) error {
	return c.broker.CreateTopic(name, partitions)
}

// Produce implements Client.
func (c *InProcClient) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	return c.broker.Produce(topicName, partition, key, value)
}

// Fetch implements Client.
func (c *InProcClient) Fetch(topicName string, partition int32, offset int64, max int) ([]Message, error) {
	return c.broker.Fetch(topicName, partition, offset, max)
}

// FetchEach lends fn the messages Fetch would return, as views of the
// broker's log (Broker.FetchEach): what lets a Consumer's PollEach read an
// in-process broker without a copy.
func (c *InProcClient) FetchEach(topicName string, partition int32, offset int64, max int, fn func(Message)) (int, error) {
	return c.broker.FetchEach(topicName, partition, offset, max, fn)
}

// PartitionCount implements Client.
func (c *InProcClient) PartitionCount(topicName string) (int, error) {
	return c.broker.PartitionCount(topicName)
}

// ListTopics implements Client.
func (c *InProcClient) ListTopics() ([]string, error) {
	return c.broker.Topics(), nil
}

// ProduceBatchInto implements BatchClient: the broker's single-pass
// batch append, without a wire in between. Matching the TCP client,
// failures are reported per record in res; the call itself only errors
// on a res/recs length mismatch.
func (c *InProcClient) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	if len(res) != len(recs) {
		return errBatchSize
	}
	err := c.broker.ProduceBatch(topic, partition, recs, func(i int, part int32, off int64, perr error) {
		res[i] = BatchResult{Partition: part, Offset: off, Err: perr}
		if perr != nil {
			if hint, ok := flow.RetryAfter(perr); ok {
				res[i].RetryAfter = hint
			}
		}
	})
	if err != nil {
		// Whole-batch refusal (unknown topic, closed broker): every record
		// failed the same way.
		for i := range res {
			res[i] = BatchResult{Err: err}
		}
	}
	return nil
}

// Close implements Client. The underlying broker stays open — it may be
// shared by other clients.
func (c *InProcClient) Close() error { return nil }

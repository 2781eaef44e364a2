package stream

// ReplicatedClient adapts a ReplicaSet to the Client interface, so
// producers, consumers and groups written against Client run unchanged
// on a replicated cluster: produces route to partition leaders at the
// client's ack level, fetches route to leaders, and leadership changes
// surface as ErrNotLeader until the next election settles.

// AckClient is a Client that can produce at an explicit ack level.
type AckClient interface {
	Client
	// ProduceAcks is Produce with a durability level. AckAll returns
	// only after every in-sync replica holds the record.
	ProduceAcks(topicName string, partition int32, key, value []byte, acks AckLevel) (int32, int64, error)
}

// AckBatchClient is a BatchClient that can produce batches at an
// explicit ack level.
type AckBatchClient interface {
	BatchClient
	// ProduceBatchAcksInto is ProduceBatchInto with a durability level.
	ProduceBatchAcksInto(topic string, partition int32, recs []BatchRecord, res []BatchResult, acks AckLevel) error
}

// ReplicatedClient routes Client calls through a ReplicaSet.
type ReplicatedClient struct {
	rs   *ReplicaSet
	acks AckLevel
}

var (
	_ Client         = (*ReplicatedClient)(nil)
	_ AckClient      = (*ReplicatedClient)(nil)
	_ AckBatchClient = (*ReplicatedClient)(nil)
	_ lender         = (*ReplicatedClient)(nil)
)

// Client returns a Client view of the set producing at the given ack
// level (Produce calls without an explicit level use it).
func (rs *ReplicaSet) Client(acks AckLevel) *ReplicatedClient {
	return &ReplicatedClient{rs: rs, acks: acks}
}

// CreateTopic implements Client.
func (c *ReplicatedClient) CreateTopic(name string, partitions int) error {
	return c.rs.CreateTopic(name, partitions)
}

// Produce implements Client at the client's default ack level.
func (c *ReplicatedClient) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	return c.rs.Produce(topicName, partition, key, value, c.acks)
}

// ProduceAcks implements AckClient.
func (c *ReplicatedClient) ProduceAcks(topicName string, partition int32, key, value []byte, acks AckLevel) (int32, int64, error) {
	return c.rs.Produce(topicName, partition, key, value, acks)
}

// Fetch implements Client, reading from the partition leader.
func (c *ReplicatedClient) Fetch(topicName string, partition int32, offset int64, max int) ([]Message, error) {
	return c.rs.Fetch(topicName, partition, offset, max)
}

// FetchEach lends the leader read (see Consumer.PollEach): fn is handed
// views of the leader's log under the replica set's lock, and so must
// neither keep them nor call back into the set.
func (c *ReplicatedClient) FetchEach(topicName string, partition int32, offset int64, max int, fn func(Message)) (int, error) {
	return c.rs.fetchEach(topicName, partition, offset, max, fn)
}

// PartitionCount implements Client.
func (c *ReplicatedClient) PartitionCount(topicName string) (int, error) {
	c.rs.mu.Lock()
	b := c.rs.replicas[c.rs.firstAliveLocked()].Broker
	c.rs.mu.Unlock()
	return b.PartitionCount(topicName)
}

// ListTopics implements Client.
func (c *ReplicatedClient) ListTopics() ([]string, error) {
	c.rs.mu.Lock()
	b := c.rs.replicas[c.rs.firstAliveLocked()].Broker
	c.rs.mu.Unlock()
	return b.Topics(), nil
}

// ProduceBatchInto implements BatchClient at the default ack level.
func (c *ReplicatedClient) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	return c.ProduceBatchAcksInto(topic, partition, recs, res, c.acks)
}

// ProduceBatchAcksInto implements AckBatchClient: one pass through the
// replica set for the whole batch (ReplicaSet.produceBatch), each record
// settled in res as a ProduceAcks of it would have been.
func (c *ReplicatedClient) ProduceBatchAcksInto(topic string, partition int32, recs []BatchRecord, res []BatchResult, acks AckLevel) error {
	if len(res) != len(recs) {
		return errBatchSize
	}
	c.rs.produceBatch(topic, partition, recs, res, acks)
	return nil
}

// Close implements Client. The replica set stays open — it may be
// shared by other clients.
func (c *ReplicatedClient) Close() error { return nil }

package stream

// Client is the minimal broker round-trip surface; its methods' error
// results carry redirects and retry hints that call sites must not
// drop.
type Client struct{}

// Produce appends one record.
func (c *Client) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	return partition, 0, nil
}

// CreateTopic declares a topic.
func (c *Client) CreateTopic(name string, partitions int) error { return nil }

// BatchResult is the broker's per-record answer to a batch. Err is a
// struct field, not a sentinel: it holds whichever error the record got.
type BatchResult struct {
	Offset int64
	Err    error
}

// ProduceBatch appends records and answers each in res.
func (c *Client) ProduceBatch(topic string, values [][]byte, res []BatchResult) error {
	return nil
}

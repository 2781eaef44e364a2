package stream

import (
	"fmt"
	"sync"
)

// Consumer pulls messages from every partition of one topic, tracking its
// own per-partition offsets (there are no consumer groups: CAD3's
// consumers — the Spark ingestion loop and the vehicles' warning listeners
// — each read the whole topic). It is safe for concurrent use.
type Consumer struct {
	client Client
	topic  string

	mu         sync.Mutex
	offsets    []int64
	next       int // round-robin partition cursor
	totalBytes int64
	totalMsgs  int64

	// The poll in progress: its reads, one a partition from the cursor on;
	// ends, per partition, the offset past the last message it delivered
	// (-1: none yet); and where it delivers — PollEach's callback, or the
	// slice PollInto appends to. lend is deliverLocked, bound once: a method
	// value made per poll would be an allocation per poll.
	reads []PartitionRead
	ends  []int64
	each  func(Message)
	into  []Message
	lend  func(Message)
}

// NewConsumer creates a consumer positioned at the given start offset on
// every partition of the topic (0 = earliest retained).
func NewConsumer(client Client, topicName string, startOffset int64) (*Consumer, error) {
	if client == nil {
		return nil, fmt.Errorf("stream: consumer requires a client")
	}
	n, err := client.PartitionCount(topicName)
	if err != nil {
		return nil, fmt.Errorf("consumer for %q: %w", topicName, err)
	}
	offsets := make([]int64, n)
	for i := range offsets {
		offsets[i] = startOffset
	}
	return &Consumer{
		client:  client,
		topic:   topicName,
		offsets: offsets,
		reads:   make([]PartitionRead, 0, n),
		ends:    make([]int64, n),
	}, nil
}

// Poll fetches up to max messages, cycling through partitions round-robin
// and advancing offsets past what it returns. An empty result means no new
// messages were available.
//
// The caller owns the returned messages' Key/Value buffers; once they are
// fully decoded it may hand them back with RecycleMessages (optional — not
// doing so just leaves them to the GC).
func (c *Consumer) Poll(max int) ([]Message, error) {
	return c.PollInto(nil, max)
}

// PollInto is Poll appending into a caller-supplied slice, so a steady
// drain loop can reuse one backing array: msgs = msgs[:0] each round, then
// msgs, err = c.PollInto(msgs, max). Ownership of the messages' payload
// buffers is the same as Poll's.
func (c *Consumer) PollInto(dst []Message, max int) ([]Message, error) {
	if max <= 0 {
		return dst, nil
	}
	_, dst, err := c.poll(max, nil, dst)
	return dst, err
}

// PollEach is PollInto for a reader that decodes and moves on: the same
// partitions in the same order, the same offsets and Received() afterwards,
// but each message is lent to fn instead of returned, and PollEach returns
// how many were. A message's Key and Value are borrowed for the call — views
// of the broker's partition log (in process) or of the fetch response frame
// (TCP), with no copy made for the consumer. fn must copy what it
// keeps, must not recycle them, and must not call into the broker, the
// replica set or this consumer: it may run under their locks. The
// cad3_checks build hands fn a scratch copy and poisons it afterwards, so a
// view that is kept reads 0xDB.
func (c *Consumer) PollEach(max int, fn func(Message)) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	n, _, err := c.poll(max, fn, nil)
	return n, err
}

// poll is one poll behind PollInto and PollEach: one FetchEach of up to
// max messages, a partition after another from the round-robin cursor,
// each message delivered through deliverLocked — lent to each, or else
// cloned onto into, which comes back. A partition moves past the last
// message it delivered; one whose read failed stays put.
func (c *Consumer) poll(max int, each func(Message), into []Message) (int, []Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lend == nil {
		c.lend = c.deliverLocked
	}
	c.each, c.into = each, into
	n := len(c.offsets)
	start := c.next
	c.next = (c.next + 1) % n
	c.reads = c.reads[:0]
	for i := 0; i < n; i++ {
		part := (start + i) % n
		c.reads = append(c.reads, PartitionRead{Partition: int32(part), Offset: c.offsets[part]})
		c.ends[part] = -1
	}
	//cad3:allow lockdiscipline c.mu must cover the fetch: two concurrent polls, or a SeekTo/SetOffsets, must never read from the same offsets and deliver a record twice
	got := c.client.FetchEach(c.topic, c.reads, max, c.lend)
	var firstErr error
	for _, r := range c.reads {
		if r.Err != nil {
			// The healthy partitions were drained all the same; report the
			// first failure so callers can degrade gracefully.
			if firstErr == nil {
				firstErr = fmt.Errorf("fetch %q/%d: %w", c.topic, r.Partition, r.Err)
			}
			continue
		}
		if end := c.ends[r.Partition]; end >= 0 {
			c.offsets[r.Partition] = end
		}
	}
	into, c.each, c.into = c.into, nil, nil
	return got, into, firstErr
}

// deliverLocked books one lent message as consumed and hands it on: to
// PollEach's callback, or appended to PollInto's slice as a pooled clone,
// since PollInto's caller owns what it gets.
func (c *Consumer) deliverLocked(m Message) {
	if p := int(m.Partition); p >= 0 && p < len(c.ends) {
		c.ends[p] = m.Offset + 1
	}
	c.totalBytes += int64(m.WireSize())
	c.totalMsgs++
	if c.each != nil {
		m = guardLend(m)
		c.each(m)
		guardReclaim(m)
		return
	}
	c.into = append(c.into, m.owning())
}

// SeekTo positions every partition offset.
func (c *Consumer) SeekTo(offset int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.offsets {
		c.offsets[i] = offset
	}
}

// SetOffsets positions a consumer's per-partition offsets (checkpoint
// restore). The length must match the partition count.
//
// The reposition serializes behind the consumer mutex — the same mutex
// PollInto holds for its entire fetch loop — so a concurrent poll either
// completes wholly before the restore or starts wholly after it; it can
// never observe half-restored offsets. The round-robin cursor resets
// with the offsets, keeping the first post-restore poll deterministic.
func (c *Consumer) SetOffsets(offsets []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(offsets) != len(c.offsets) {
		return fmt.Errorf("stream: %d offsets for %d partitions of %q",
			len(offsets), len(c.offsets), c.topic)
	}
	copy(c.offsets, offsets)
	c.next = 0
	return nil
}

// Offsets returns a copy of the per-partition offsets.
func (c *Consumer) Offsets() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.offsets))
	copy(out, c.offsets)
	return out
}

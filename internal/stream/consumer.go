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
	inflight   []pendingFetch // pollPipelinedLocked scratch
}

// pendingFetch is a fetch between issue and await, or the issue's error.
type pendingFetch struct {
	ch  chan pipeResp
	err error
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
	return &Consumer{client: client, topic: topicName, offsets: offsets}, nil
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
// buffers is the same as Poll's. A pipelined TCPClient is asked for every
// partition in one round (pollPipelinedLocked); any other client for one
// partition after another.
func (c *Consumer) PollInto(dst []Message, max int) ([]Message, error) {
	if max <= 0 {
		return dst, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	n := len(c.offsets)
	start := c.next
	c.next = (c.next + 1) % n
	if tc, ok := c.client.(*TCPClient); ok && tc.Pipelined() {
		return c.pollPipelinedLocked(tc, start, dst, max)
	}
	out := dst
	var firstErr error
	for tried := 0; tried < n && len(out)-len(dst) < max; tried++ {
		part := int32((start + tried) % n)
		//cad3:allow lockdiscipline c.mu must cover the fetch (and the pipelined round that stands in for it): SwapClient's failover contract (documented there) requires that a swap never interleaves with a poll advancing offsets
		msgs, err := c.client.Fetch(c.topic, part, c.offsets[part], max-(len(out)-len(dst)))
		if err != nil {
			// Keep draining the healthy partitions; report the first
			// failure so callers can degrade gracefully.
			if firstErr == nil {
				firstErr = fmt.Errorf("fetch %q/%d: %w", c.topic, part, err)
			}
			continue
		}
		c.consumedLocked(part, msgs)
		out = append(out, msgs...)
	}
	return out, firstErr
}

// pollPipelinedLocked returns what PollInto's one-by-one loop returns, in
// one round trip: it issues a fetch per partition in round-robin order,
// each asking for all that is still wanted, then awaits them in that order
// and keeps from each only what is still wanted by then. The surplus is
// dropped undecoded and its offsets stay put, so the next poll reads it
// again (consuming it would return more than max). The first fetch of a
// round waits for the connection's window and the rest stop at a full one,
// which leaves a topic with more partitions than that to further rounds.
func (c *Consumer) pollPipelinedLocked(tc *TCPClient, start int, dst []Message, max int) ([]Message, error) {
	out := dst
	var firstErr error
	n := len(c.offsets)
	want := max // messages still wanted
	for tried := 0; tried < n && want > 0; {
		c.inflight = c.inflight[:0]
		for tried+len(c.inflight) < n {
			part := int32((start + tried + len(c.inflight)) % n)
			ch, err := tc.fetchIssue(c.topic, part, c.offsets[part], want, len(c.inflight) == 0)
			if ch == nil && err == nil {
				break // window full: collect what is in flight first
			}
			c.inflight = append(c.inflight, pendingFetch{ch: ch, err: err})
		}
		for i, pf := range c.inflight {
			part := int32((start + tried + i) % n)
			from, err := len(out), pf.err
			if err == nil {
				out, err = tc.fetchAwait(pf.ch, c.topic, out, want)
			}
			if err != nil {
				// The one-by-one loop stops fetching once it has max, so a
				// failure past that point is one it would never have seen.
				if firstErr == nil && want > 0 {
					firstErr = fmt.Errorf("fetch %q/%d: %w", c.topic, part, err)
				}
				continue
			}
			c.consumedLocked(part, out[from:])
			want -= len(out) - from
		}
		tried += len(c.inflight)
	}
	return out, firstErr
}

// consumedLocked books one partition's messages as returned to the caller.
func (c *Consumer) consumedLocked(part int32, msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	c.offsets[part] = msgs[len(msgs)-1].Offset + 1
	for i := range msgs {
		c.totalBytes += int64(msgs[i].WireSize())
	}
	c.totalMsgs += int64(len(msgs))
}

// SwapClient rebinds the consumer to a new client — the failover path
// after a broker is replaced. Offsets are preserved: the new broker must
// serve the same topic with at least as many partitions (extra
// partitions start from the earliest offset; fewer is an error, since
// committed offsets would silently vanish). The swap serializes behind
// the consumer mutex, so it never interleaves with a PollInto in flight.
func (c *Consumer) SwapClient(client Client) error {
	if client == nil {
		return fmt.Errorf("stream: consumer requires a client")
	}
	n, err := client.PartitionCount(c.topic)
	if err != nil {
		return fmt.Errorf("swap consumer for %q: %w", c.topic, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < len(c.offsets) {
		return fmt.Errorf("stream: swap would shrink %q from %d to %d partitions",
			c.topic, len(c.offsets), n)
	}
	for len(c.offsets) < n {
		c.offsets = append(c.offsets, 0)
	}
	c.client = client
	c.next = 0
	return nil
}

// SeekTo positions every partition offset.
func (c *Consumer) SeekTo(offset int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.offsets {
		c.offsets[i] = offset
	}
}

// Offsets returns a copy of the per-partition offsets.
func (c *Consumer) Offsets() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.offsets))
	copy(out, c.offsets)
	return out
}

// Received returns the cumulative (messages, wire bytes) consumed.
func (c *Consumer) Received() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalMsgs, c.totalBytes
}

// Topic returns the topic the consumer reads.
func (c *Consumer) Topic() string { return c.topic }

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

	// Where the poll in progress delivers: PollEach's callback, or the
	// slice PollInto appends to. lastOffset is the offset of the last
	// message delivered. lend is deliverLocked for borrowed messages, bound
	// once: a method value made per fetch would be an allocation per fetch.
	each       func(Message)
	into       []Message
	lastOffset int64
	lend       func(Message)
}

// pendingFetch is a fetch between issue and await, or the issue's error.
type pendingFetch struct {
	ch  chan pipeResp
	err error
}

// lender is a Client that can lend a fetch's messages as views of where
// they already are (InProcClient: the broker's partition log; the replica
// set's clients: the serving replica's) instead of returning clones.
type lender interface {
	FetchEach(topicName string, partition int32, offset int64, max int, fn func(Message)) (int, error)
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

// poll is one poll behind PollInto and PollEach: up to max messages, a
// partition after another from the round-robin cursor, each delivered
// through deliverLocked — lent to each, or else appended to into, which
// comes back. A TCPClient is asked for every partition in one round
// (pollPipelinedLocked); a lender lends its log; any other client's Fetch
// returns messages the consumer owns, which PollInto passes on and PollEach
// recycles once fn has seen them — so a wrapper that draws a fault per
// fetch sees the same fetches either way.
func (c *Consumer) poll(max int, each func(Message), into []Message) (int, []Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lend == nil {
		c.lend = func(m Message) { c.deliverLocked(m, true) }
	}
	c.each, c.into = each, into
	n := len(c.offsets)
	start := c.next
	c.next = (c.next + 1) % n
	got, tried := 0, 0
	var firstErr error
	if tc, ok := c.client.(*TCPClient); ok {
		got, firstErr = c.pollPipelinedLocked(tc, start, max)
		tried = n // in that one round
	}
	lends, _ := c.client.(lender)
	for ; tried < n && got < max; tried++ {
		part := int32((start + tried) % n)
		var k int
		var err error
		if lends != nil {
			k, err = lends.FetchEach(c.topic, part, c.offsets[part], max-got, c.lend)
		} else {
			var msgs []Message
			//cad3:allow lockdiscipline c.mu must cover the fetch (and the lent read or pipelined round that stands in for it): two concurrent polls, or a SeekTo/SetOffsets, must never read from the same offsets and deliver a record twice
			msgs, err = c.client.Fetch(c.topic, part, c.offsets[part], max-got)
			if err == nil {
				for i := range msgs {
					c.deliverLocked(msgs[i], false)
				}
				if each != nil {
					RecycleMessages(msgs)
				}
				k = len(msgs)
			}
		}
		if err != nil {
			// Keep draining the healthy partitions; report the first
			// failure so callers can degrade gracefully.
			if firstErr == nil {
				firstErr = fmt.Errorf("fetch %q/%d: %w", c.topic, part, err)
			}
			continue
		}
		c.consumedLocked(part, k)
		got += k
	}
	into, c.each, c.into = c.into, nil, nil
	return got, into, firstErr
}

// pollPipelinedLocked delivers what poll's one-by-one loop delivers,
// in one round trip: it issues a fetch per partition in round-robin order,
// each asking for all that is still wanted, then awaits them in that order
// and lends from each response frame only what is still wanted by then. The
// surplus is dropped undecoded and its offsets stay put, so the next poll
// reads it again (consuming it would return more than max). The first fetch
// of a round waits for the connection's window and the rest stop at a full
// one, which leaves a topic with more partitions than that to further
// rounds.
func (c *Consumer) pollPipelinedLocked(tc *TCPClient, start, max int) (int, error) {
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
			k, err := 0, pf.err
			if err == nil {
				var dec wireDecoder
				if dec, err = tc.fetchAwait(pf.ch); err == nil {
					k = dec.eachMessage(c.topic, want, c.lend)
					err = dec.err
					dec.release()
				}
			}
			if err != nil {
				// The one-by-one loop stops fetching once it has max, so a
				// failure past that point is one it would never have seen.
				if firstErr == nil && want > 0 {
					firstErr = fmt.Errorf("fetch %q/%d: %w", c.topic, part, err)
				}
				continue
			}
			c.consumedLocked(part, k)
			want -= k
		}
		tried += len(c.inflight)
	}
	return max - want, firstErr
}

// deliverLocked books one message as consumed and hands it on: lent to
// PollEach's callback, or appended to PollInto's slice — as a pooled clone
// when it is borrowed, since PollInto's caller owns what it gets.
func (c *Consumer) deliverLocked(m Message, borrowed bool) {
	c.lastOffset = m.Offset
	c.totalBytes += int64(m.WireSize())
	c.totalMsgs++
	if c.each != nil {
		m = guardLend(m)
		c.each(m)
		guardReclaim(m)
		return
	}
	if borrowed {
		m = m.owning()
	}
	c.into = append(c.into, m)
}

// consumedLocked moves a partition's offset past the k messages it just
// delivered.
func (c *Consumer) consumedLocked(part int32, k int) {
	if k > 0 {
		c.offsets[part] = c.lastOffset + 1
	}
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

// Received returns the cumulative (messages, wire bytes) consumed.
func (c *Consumer) Received() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalMsgs, c.totalBytes
}

// Topic returns the topic the consumer reads.
func (c *Consumer) Topic() string { return c.topic }

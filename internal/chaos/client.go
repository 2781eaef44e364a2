package chaos

import (
	"errors"
	"fmt"
	"time"

	"cad3/internal/stream"
)

// Errors the chaos client injects. Both are transport-class errors:
// stream.RetryClient treats them as retryable, exactly like a real dead
// connection.
var (
	// ErrConnKilled is returned when the injector kills the operation's
	// connection mid-request.
	ErrConnKilled = errors.New("chaos: connection killed")
	// ErrLinkDown is returned while the directed link is partitioned.
	ErrLinkDown = errors.New("chaos: link partitioned")
)

// Client decorates a stream.Client as one named directed link
// (From -> To) subject to an Injector's faults:
//
//   - partition: every operation fails with ErrLinkDown;
//   - kill: the operation fails with ErrConnKilled;
//   - drop (produces only): the message is lost in transit but the caller
//     observes success — the broker never sees it;
//   - dup (produces only): the message is delivered twice;
//   - delay: the operation is held for the drawn duration via Sleep.
//
// Read operations (FetchEach, PartitionCount, ListTopics) are
// subject to partition, kill, and delay; drops and dups only make sense for
// writes. Faults are drawn per record and per partition read: a batch is
// written one Produce at a time, and a FetchEach reads its partitions in
// turn, each drawing its own verdict.
type Client struct {
	// From and To name the link's endpoints (e.g. RSU names). The
	// injector's partition matrix is keyed by these names.
	From, To string

	inner stream.Client
	inj   *Injector

	// Sleep implements injected delays; the discrete-event harnesses
	// inject a virtual-clock advance. It is mandatory when the fault
	// config can draw delays: falling back to time.Sleep here would
	// silently re-couple a "deterministic" experiment to the host
	// scheduler, so apply panics instead of guessing.
	Sleep func(time.Duration)
}

var _ stream.Client = (*Client)(nil)

// NewClient wraps inner as the directed link from -> to under inj.
func NewClient(inj *Injector, from, to string, inner stream.Client) *Client {
	if inj == nil {
		inj = NewInjector(Config{})
	}
	return &Client{From: from, To: to, inner: inner, inj: inj}
}

// apply draws the operation's verdict and handles partition/kill/delay.
// It reports (drop, dup, err).
func (c *Client) apply() (bool, bool, error) {
	d := c.inj.decide(c.From, c.To)
	if d.blocked {
		return false, false, fmt.Errorf("%w: %s -> %s", ErrLinkDown, c.From, c.To)
	}
	if d.kill {
		return false, false, fmt.Errorf("%w: %s -> %s", ErrConnKilled, c.From, c.To)
	}
	if d.delay > 0 {
		if c.Sleep == nil {
			panic("chaos: delay fault drawn on link " + c.From + " -> " + c.To +
				" but Client.Sleep is nil; inject a (virtual) clock")
		}
		c.Sleep(d.delay)
	}
	return d.drop, d.dup, nil
}

// CreateTopic implements stream.Client.
func (c *Client) CreateTopic(name string, partitions int) error {
	if _, _, err := c.apply(); err != nil {
		return err
	}
	return c.inner.CreateTopic(name, partitions)
}

// Produce implements stream.Client. A dropped message reports success
// without reaching the broker (offset -1); a duplicated one is appended
// twice and reports the first append's coordinates.
func (c *Client) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	drop, dup, err := c.apply()
	if err != nil {
		return 0, 0, err
	}
	if drop {
		// Lost in transit after the sender's ack timeout would have
		// fired: the caller cannot distinguish this from success.
		if partition == stream.AutoPartition {
			partition = 0
		}
		return partition, -1, nil
	}
	part, off, err := c.inner.Produce(topicName, partition, key, value)
	if err != nil {
		return part, off, err
	}
	if dup {
		//cad3:allow wireerrexhaustive duplicate-delivery injection: the duplicate's outcome must stay invisible to the caller, exactly like a retransmit the sender never learns about
		_, _, _ = c.inner.Produce(topicName, partition, key, value)
	}
	return part, off, nil
}

// ProduceBatchInto implements stream.Client one Produce at a time, so each
// record draws its own fault.
func (c *Client) ProduceBatchInto(topicName string, partition int32, recs []stream.BatchRecord, res []stream.BatchResult) error {
	return stream.ProduceInTurn(recs, res, func(key, value []byte) (int32, int64, error) {
		return c.Produce(topicName, partition, key, value)
	})
}

// FetchEach implements stream.Client a partition at a time, so each read
// draws its own fault.
func (c *Client) FetchEach(topicName string, reads []stream.PartitionRead, max int, fn func(stream.Message)) int {
	return stream.FetchInTurn(reads, max, func(one []stream.PartitionRead, max int) int {
		if _, _, one[0].Err = c.apply(); one[0].Err != nil {
			return 0
		}
		return c.inner.FetchEach(topicName, one, max, fn)
	})
}

// PartitionCount implements stream.Client.
func (c *Client) PartitionCount(topicName string) (int, error) {
	if _, _, err := c.apply(); err != nil {
		return 0, err
	}
	return c.inner.PartitionCount(topicName)
}

// ListTopics implements stream.Client.
func (c *Client) ListTopics() ([]string, error) {
	if _, _, err := c.apply(); err != nil {
		return nil, err
	}
	return c.inner.ListTopics()
}

// Close implements stream.Client. Closing is never fault-injected.
func (c *Client) Close() error { return c.inner.Close() }

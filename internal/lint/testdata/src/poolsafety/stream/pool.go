// Package stream is a golden fixture for the poolsafety analyzer: the
// function NAMES (GetPayload, PutPayload, RecycleMessages) carry the
// ownership contract the analyzer enforces, mirroring the real pool.
package stream

// Message pairs a key and a pooled payload, like the real transport's.
type Message struct {
	Key     []byte
	Payload []byte
}

var payloadFree = make(chan []byte, 4)

// GetPayload leases a buffer from the pool.
func GetPayload() []byte {
	select {
	case b := <-payloadFree:
		return b[:0]
	default:
		return make([]byte, 0, 64)
	}
}

// PutPayload returns a buffer to the pool; the caller gives up ownership.
func PutPayload(b []byte) {
	select {
	case payloadFree <- b:
	default:
	}
}

// RecycleMessages returns every element's payload; the slice header
// itself stays with the caller for reuse via msgs[:0].
func RecycleMessages(msgs []Message) {
	for i := range msgs {
		PutPayload(msgs[i].Payload)
		msgs[i].Payload = nil
	}
}

// Consumer lends polled messages to a callback, like the real one.
type Consumer struct{ backlog []Message }

// PollEach lends each message to fn: Key and Payload are views fn must not
// keep or recycle.
func (c *Consumer) PollEach(max int, fn func(Message)) (int, error) {
	for _, m := range c.backlog {
		fn(m)
	}
	return len(c.backlog), nil
}

// FetchEach is the per-partition form of the same loan.
func (c *Consumer) FetchEach(partition int32, fn func(Message)) (int, error) {
	return c.PollEach(0, fn)
}

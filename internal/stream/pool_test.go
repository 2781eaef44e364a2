package stream

import (
	"bytes"
	"fmt"
	"testing"
)

func newTestBrokerClient(t *testing.T, cfg BrokerConfig) Client {
	t.Helper()
	b := NewBroker(cfg)
	if err := b.CreateTopic(TopicInData, DefaultPartitions); err != nil {
		t.Fatal(err)
	}
	return NewInProcClient(b)
}

// TestSendReusedBufferRoundTrip pins the contract a sender that encodes
// into one buffer relies on: Send copies the payload before returning, so
// the buffer is free to reuse at once, and recycling polled messages does
// not corrupt later sends.
func TestSendReusedBufferRoundTrip(t *testing.T) {
	client := newTestBrokerClient(t, BrokerConfig{})
	prod, err := NewProducer(client, TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(client, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 50
	var msgs []Message
	var buf []byte
	for i := 0; i < rounds; i++ {
		want := fmt.Sprintf("payload-%03d", i)
		buf = append(buf[:0], want...)
		if _, _, err := prod.Send([]byte("car-1"), buf); err != nil {
			t.Fatal(err)
		}
		msgs = msgs[:0]
		msgs, err = cons.PollInto(msgs, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("round %d: got %d messages, want 1", i, len(msgs))
		}
		if got := string(msgs[0].Value); got != want {
			t.Fatalf("round %d: value %q, want %q", i, got, want)
		}
		if got := string(msgs[0].Key); got != "car-1" {
			t.Fatalf("round %d: key %q, want car-1", i, got)
		}
		RecycleMessages(msgs)
	}
}

// TestPolledClonesSurviveEviction pins the aliasing hazard: a clone handed
// to a consumer must stay intact after broker retention evicts (and
// recycles) the log's own copy of the message.
func TestPolledClonesSurviveEviction(t *testing.T) {
	b := NewBroker(BrokerConfig{MaxRetainedPerPartition: 8})
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	client := NewInProcClient(b)

	payload := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d", i)) }
	if _, _, err := client.Produce(TopicInData, 0, nil, payload(0)); err != nil {
		t.Fatal(err)
	}
	msgs, err := client.Fetch(TopicInData, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	kept := msgs[0]

	// Overflow retention so message 0 is evicted and its broker-side
	// buffers go back to the pool, then churn the pool with new sends.
	for i := 1; i < 100; i++ {
		if _, _, err := client.Produce(TopicInData, 0, nil, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(kept.Value, payload(0)) {
		t.Fatalf("polled clone mutated after eviction: %q", kept.Value)
	}
}

// TestRecycledBuffersDoNotAliasLog asserts recycling a polled message and
// immediately producing (which draws from the same pool) leaves other
// consumers' reads of the original offset intact.
func TestRecycledBuffersDoNotAliasLog(t *testing.T) {
	client := newTestBrokerClient(t, BrokerConfig{})
	if _, _, err := client.Produce(TopicInData, 0, []byte("k0"), []byte("original")); err != nil {
		t.Fatal(err)
	}
	msgs, err := client.Fetch(TopicInData, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	RecycleMessages(msgs)
	if _, _, err := client.Produce(TopicInData, 0, []byte("k1"), []byte("OVERWRITE")); err != nil {
		t.Fatal(err)
	}
	again, err := client.Fetch(TopicInData, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || string(again[0].Value) != "original" {
		t.Fatalf("log copy corrupted by recycled buffer reuse: %+v", again)
	}
}

// TestPollIntoAppends asserts PollInto appends after existing elements and
// respects max relative to what it added, not the slice length.
func TestPollIntoAppends(t *testing.T) {
	client := newTestBrokerClient(t, BrokerConfig{})
	for i := 0; i < 5; i++ {
		if _, _, err := client.Produce(TopicInData, 0, nil, payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	cons, err := NewConsumer(client, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Message, 2) // pre-existing elements must be preserved
	out, err := cons.PollInto(dst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("len(out) = %d, want 2 existing + 3 polled", len(out))
	}
	if string(out[2].Value) != "n-0" || string(out[4].Value) != "n-2" {
		t.Fatalf("unexpected polled window: %q %q", out[2].Value, out[4].Value)
	}
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("n-%d", i)) }

// TestSendReusedBufferOverTCP runs the reused-buffer send and the
// consume path across the wire protocol, where frames themselves are
// pooled too.
func TestSendReusedBufferOverTCP(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.CreateTopic(TopicOutData, 1); err != nil {
		t.Fatal(err)
	}
	prod, err := NewProducer(client, TopicOutData)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(client, TopicOutData, 0)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []Message
	var buf []byte
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("tcp-%02d", i)
		buf = append(buf[:0], want...)
		if _, _, err := prod.Send(nil, buf); err != nil {
			t.Fatal(err)
		}
		msgs = msgs[:0]
		msgs, err = cons.PollInto(msgs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 || string(msgs[0].Value) != want {
			t.Fatalf("round %d: got %+v, want value %q", i, msgs, want)
		}
		RecycleMessages(msgs)
	}
}

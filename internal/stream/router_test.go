package stream

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cad3/internal/obsv"
)

func routerBroker(t *testing.T) *Broker {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic(TopicCoData, 2); err != nil {
		t.Fatal(err)
	}
	return b
}

func drainTopic(t *testing.T, b *Broker, topic string) []Message {
	t.Helper()
	var all []Message
	parts, err := b.PartitionCount(topic)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		msgs, err := b.Fetch(topic, int32(p), 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, msgs...)
	}
	return all
}

func TestRouterForwardsInOrderPerDest(t *testing.T) {
	reg := obsv.NewRegistry()
	r := NewSummaryRouter(RouterConfig{Metrics: reg})
	b1, b2 := routerBroker(t), routerBroker(t)
	if err := r.Register("shard-1", NewInProcClient(b1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("shard-2", NewInProcClient(b2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		dest := "shard-1"
		if i%2 == 1 {
			dest = "shard-2"
		}
		key := []byte(fmt.Sprintf("car-%d", i))
		if err := r.Forward(dest, key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Pending(); got != 10 {
		t.Fatalf("pending = %d, want 10", got)
	}
	sent, err := r.Flush()
	if err != nil || sent != 10 {
		t.Fatalf("flush = (%d, %v), want (10, nil)", sent, err)
	}
	if got := r.Pending(); got != 0 {
		t.Fatalf("pending after flush = %d", got)
	}
	// Keyed produce lands each car on a stable partition; per-partition
	// order must match forward order (FIFO within the queue).
	for bi, b := range []*Broker{b1, b2} {
		msgs := drainTopic(t, b, TopicCoData)
		if len(msgs) != 5 {
			t.Fatalf("broker %d holds %d messages, want 5", bi+1, len(msgs))
		}
		RecycleMessages(msgs)
	}
	snap := reg.Snapshot()
	if snap.Counters["shard.router.forwards"] != 10 || snap.Counters["shard.router.sent"] != 10 {
		t.Fatalf("router counters off: %+v", snap.Counters)
	}
}

func TestRouterUnknownDest(t *testing.T) {
	r := NewSummaryRouter(RouterConfig{})
	if err := r.Forward("nowhere", nil, []byte("x")); !errors.Is(err, ErrUnknownDest) {
		t.Fatalf("err = %v, want ErrUnknownDest", err)
	}
}

// TestRouterRetriesAcrossOutage: a destination whose broker is down
// keeps its backlog queued in order and delivers it once the broker
// heals — at-least-once across the outage, other destinations
// unaffected.
func TestRouterRetriesAcrossOutage(t *testing.T) {
	reg := obsv.NewRegistry()
	r := NewSummaryRouter(RouterConfig{Metrics: reg})
	down, up := routerBroker(t), routerBroker(t)
	if err := r.Register("down", NewInProcClient(down)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("up", NewInProcClient(up)); err != nil {
		t.Fatal(err)
	}
	down.SetPartitionDown(TopicCoData, 0, true)
	down.SetPartitionDown(TopicCoData, 1, true)
	for i := 0; i < 4; i++ {
		if err := r.Forward("down", []byte("k"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Forward("up", []byte("k"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	sent, err := r.Flush()
	if err == nil {
		t.Fatal("flush against a down partition reported no error")
	}
	if sent != 1 {
		t.Fatalf("flush delivered %d, want 1 (the healthy destination)", sent)
	}
	if got := r.Pending(); got != 4 {
		t.Fatalf("pending = %d, want the 4 queued for the down shard", got)
	}
	down.SetPartitionDown(TopicCoData, 0, false)
	down.SetPartitionDown(TopicCoData, 1, false)
	if sent, err := r.Flush(); err != nil || sent != 4 {
		t.Fatalf("post-heal flush = (%d, %v), want (4, nil)", sent, err)
	}
	msgs := drainTopic(t, down, TopicCoData)
	if len(msgs) != 4 {
		t.Fatalf("healed broker holds %d messages, want 4", len(msgs))
	}
	for i, m := range msgs {
		if m.Value[0] != byte(i) {
			t.Fatalf("message %d out of order: value %v", i, m.Value)
		}
	}
	RecycleMessages(msgs)
	if reg.Snapshot().Counters["shard.router.retries"] == 0 {
		t.Fatal("no retry was counted across the outage")
	}
}

// TestRouterOverWireClient runs a destination over the real v2 wire
// protocol (pooled pipelined TCP client), the deployment shape for
// cross-process shards.
func TestRouterOverWireClient(t *testing.T) {
	b := routerBroker(t)
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := DialPool(srv.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewSummaryRouter(RouterConfig{})
	if err := r.Register("remote", pool); err != nil {
		t.Fatal(err)
	}
	defer r.Close() // closes the pool
	for i := 0; i < 8; i++ {
		if err := r.Forward("remote", []byte(fmt.Sprintf("car-%d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if sent, err := r.Flush(); err != nil || sent != 8 {
		t.Fatalf("wire flush = (%d, %v), want (8, nil)", sent, err)
	}
	msgs := drainTopic(t, b, TopicCoData)
	if len(msgs) != 8 {
		t.Fatalf("wire destination holds %d messages, want 8", len(msgs))
	}
	RecycleMessages(msgs)
}

// TestRouterRunStop covers the periodic wall-clock flusher's lifecycle.
func TestRouterRunStop(t *testing.T) {
	r := NewSummaryRouter(RouterConfig{})
	b := routerBroker(t)
	if err := r.Register("s", NewInProcClient(b)); err != nil {
		t.Fatal(err)
	}
	if err := r.Forward("s", nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.Run(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for r.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	if got := r.Pending(); got != 0 {
		t.Fatalf("periodic flusher left %d pending", got)
	}
}

// gatedClient blocks every Produce until released, signalling entry, so
// tests can observe what the router keeps responsive mid-produce.
type gatedClient struct {
	Client
	entered chan struct{}
	release chan struct{}
}

func (c *gatedClient) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	select {
	case c.entered <- struct{}{}:
	default: // later rounds: nobody is watching for entry any more
	}
	<-c.release
	return c.Client.Produce(topicName, partition, key, value)
}

// TestRouterFlushReleasesLockDuringProduce is the regression test for
// Flush holding r.mu across the network round trip: with a produce in
// flight, Forward and the pending gauge must still complete, and a
// concurrent Flush must skip instead of queueing behind the round.
func TestRouterFlushReleasesLockDuringProduce(t *testing.T) {
	r := NewSummaryRouter(RouterConfig{})
	b := routerBroker(t)
	gc := &gatedClient{
		Client:  NewInProcClient(b),
		entered: make(chan struct{}, 1), // the first entry lands even if the test is not yet waiting
		release: make(chan struct{}),
	}
	if err := r.Register("s", gc); err != nil {
		t.Fatal(err)
	}
	if err := r.Forward("s", nil, []byte("first")); err != nil {
		t.Fatal(err)
	}

	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		if sent, err := r.Flush(); err != nil || sent != 1 {
			t.Errorf("flush = (%d, %v), want (1, nil)", sent, err)
		}
	}()
	<-gc.entered // the produce is now in flight

	// Forward and Pending must not block behind the produce. Run them
	// in a goroutine so a regression fails the test instead of hanging it.
	ok := make(chan struct{})
	go func() {
		defer close(ok)
		if err := r.Forward("s", nil, []byte("second")); err != nil {
			t.Errorf("forward during flush: %v", err)
		}
		if got := r.Pending(); got != 2 {
			t.Errorf("pending during flush = %d, want 2 (snapshot not yet trimmed)", got)
		}
	}()
	select {
	case <-ok:
	case <-time.After(2 * time.Second):
		t.Fatal("Forward/Pending blocked while Flush held a produce in flight")
	}

	// A concurrent Flush skips the in-flight round instead of stacking.
	if sent, err := r.Flush(); sent != 0 || err != nil {
		t.Fatalf("concurrent flush = (%d, %v), want (0, nil) skip", sent, err)
	}

	close(gc.release)
	<-flushed

	// The entry forwarded mid-flush stayed queued; the next round takes it.
	if got := r.Pending(); got != 1 {
		t.Fatalf("pending after flush = %d, want 1", got)
	}
	if sent, err := r.Flush(); err != nil || sent != 1 {
		t.Fatalf("second flush = (%d, %v), want (1, nil)", sent, err)
	}
	msgs := drainTopic(t, b, TopicCoData)
	if len(msgs) != 2 {
		t.Fatalf("destination holds %d messages, want 2", len(msgs))
	}
	// AutoPartition round-robins, so drain order across partitions is
	// not produce order; both entries arriving exactly once is the
	// at-least-once + trim-reconciliation property under test.
	seen := map[string]int{}
	for _, m := range msgs {
		seen[string(m.Value)]++
	}
	if seen["first"] != 1 || seen["second"] != 1 {
		t.Fatalf("delivery across split flushes = %v, want exactly one of each", seen)
	}
	RecycleMessages(msgs)
}

// flakyClient records what it accepts and refuses every produce whose
// turn the refuse function picks.
type flakyClient struct {
	Client
	turn   int
	refuse func(turn int) bool
	got    [][2]string
}

func (c *flakyClient) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	c.turn++
	if c.refuse(c.turn) {
		return 0, 0, errors.New("refused")
	}
	c.got = append(c.got, [2]string{string(key), string(value)})
	return 0, int64(len(c.got) - 1), nil
}

// TestRouterArenaKeepsQueuedBytes: entries queued in a destination's
// arena keep their bytes across partial flushes that repack the arena,
// across the arena's growth and across its reuse once a flush empties it,
// and arrive in order, each exactly once, with empty keys kept nil. A warm
// forward and flush allocates nothing.
func TestRouterArenaKeepsQueuedBytes(t *testing.T) {
	r := NewSummaryRouter(RouterConfig{})
	c := &flakyClient{refuse: func(turn int) bool { return turn%7 == 3 || turn%11 == 0 }}
	if err := r.Register("s", c); err != nil {
		t.Fatal(err)
	}
	var want [][2]string
	next := 0
	forward := func(n int) {
		for ; n > 0; n-- {
			key := []byte(fmt.Sprintf("car-%d", next))
			if next%5 == 0 {
				key = nil
			}
			value := []byte(fmt.Sprintf("summary-%d-%s", next, make([]byte, next%40)))
			if err := r.Forward("s", key, value); err != nil {
				t.Fatal(err)
			}
			want = append(want, [2]string{string(key), string(value)})
			next++
		}
	}
	for round := 0; round < 60; round++ {
		forward(round % 13)
		_, _ = r.Flush()
	}
	for r.Pending() > 0 {
		_, _ = r.Flush()
	}
	if len(c.got) != len(want) {
		t.Fatalf("delivered %d entries, forwarded %d", len(c.got), len(want))
	}
	for i := range want {
		if c.got[i] != want[i] {
			t.Fatalf("entry %d delivered as %q, forwarded as %q", i, c.got[i], want[i])
		}
	}
	if d := r.dests["s"]; len(d.arena) != 0 {
		t.Fatalf("an empty queue left %d arena bytes", len(d.arena))
	}

	if err := r.Register("s", NewInProcClient(routerBroker(t))); err != nil {
		t.Fatal(err)
	}
	key, value := []byte("car-7"), make([]byte, 38)
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.Forward("s", key, value); err != nil {
			t.Fatal(err)
		}
		if sent, err := r.Flush(); sent != 1 || err != nil {
			t.Fatalf("flush = (%d, %v)", sent, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Forward + Flush: %v allocs, want 0", allocs)
	}
}

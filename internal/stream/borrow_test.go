package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
)

// owned copies a lent message so a test can keep it past the callback,
// nil and empty staying what they were.
func owned(m Message) Message {
	m.Key, m.Value = refClone(m.Key), refClone(m.Value)
	return m
}

// TestScanMatchesRead feeds two gated logs the same appends, batch appends
// and retention drops and reads one with scan, the other with read, at the
// same offsets — below the base, inside, at and past the high watermark:
// the same (offset, key, value, append time) sequence, the same wire bytes,
// and the same credits back to the gate after every read.
func TestScanMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	newLog := func() *partitionLog {
		l := newPartitionLog("t", 2, 48)
		l.gate = flow.NewGate(flow.GateConfig{Capacity: 1 << 20})
		return l
	}
	lent, cloned := newLog(), newLog()
	payload := func() []byte {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return []byte{}
		default:
			b := make([]byte, 1+rng.Intn(300))
			rng.Read(b)
			return b
		}
	}
	clock := time.Unix(1_600_000_000, 0)
	for step := 0; step < 4000; step++ {
		clock = clock.Add(time.Duration(rng.Intn(3)) * time.Millisecond)
		switch rng.Intn(3) {
		case 0:
			key, value := payload(), payload()
			for _, l := range []*partitionLog{lent, cloned} {
				if err := l.gate.Admit(flow.ClassWarning); err != nil {
					t.Fatal(err)
				}
				l.append(key, value, clock, nil)
			}
		case 1:
			recs := make([]BatchRecord, rng.Intn(70))
			for i := range recs {
				recs[i] = BatchRecord{Key: payload(), Value: payload()}
			}
			for _, l := range []*partitionLog{lent, cloned} {
				for range recs {
					if err := l.gate.Admit(flow.ClassWarning); err != nil {
						t.Fatal(err)
					}
				}
				l.appendBatch(recs, clock)
			}
		case 2:
			offset := cloned.baseOffset() - 3 + int64(rng.Intn(60))
			max := rng.Intn(40) - 1
			what := fmt.Sprintf("step %d: read(%d, %d) of [%d, %d)", step, offset, max, cloned.baseOffset(), cloned.highWaterMark())
			want, readBytes := cloned.read(offset, max)
			var wantBytes int64
			for i := range want {
				wantBytes += int64(want[i].WireSize())
			}
			if readBytes != wantBytes {
				t.Fatalf("%s: read reported %d B for messages of %d B", what, readBytes, wantBytes)
			}
			var got []Message
			n, gotBytes := lent.scan(offset, max, func(m Message) { got = append(got, owned(m)) })
			if n != len(want) || len(got) != len(want) || gotBytes != wantBytes {
				t.Fatalf("%s: scan lent %d records (reported %d) of %d B, read returned %d of %d B",
					what, len(got), n, gotBytes, len(want), wantBytes)
			}
			for i := range got {
				if !sameMessage(got[i], want[i]) {
					t.Fatalf("%s: record %d is %+v, read returned %+v", what, i, got[i], want[i])
				}
			}
			RecycleMessages(want)
		}
		if a, b := lent.gate.Occupancy(), cloned.gate.Occupancy(); a != b {
			t.Fatalf("step %d: gate occupancy %d after scans, %d after reads", step, a, b)
		}
	}
}

// TestScannedViewsCannotReachTheNextRecord: a lent key or value is clipped
// to its own bytes, so an append through it reallocates instead of writing
// over the record behind it.
func TestScannedViewsCannotReachTheNextRecord(t *testing.T) {
	_, l := newTestLog(t, BrokerConfig{})
	now := time.Unix(1, 0)
	l.append([]byte("k1"), []byte("first"), now, nil)
	l.append([]byte("k2"), []byte("second"), now, nil)
	l.scan(0, 1, func(m Message) {
		_ = append(m.Key, "XXXX"...)
		_ = append(m.Value, "XXXXXXXX"...)
	})
	got, _ := l.read(0, 2)
	if string(got[0].Value) != "first" || string(got[1].Key) != "k2" || string(got[1].Value) != "second" {
		t.Fatalf("an append through a lent view wrote into the log: %q / %q %q", got[0].Value, got[1].Key, got[1].Value)
	}
}

// borrowRig is one broker with its metrics and a consumer over one kind of
// client; TestPollEachMatchesPollInto runs two of them in lock step.
type borrowRig struct {
	b   *Broker
	reg *obsv.Registry
	c   *Consumer
}

func newBorrowRig(t *testing.T, partitions int, now func() time.Time, client func(t *testing.T, b *Broker) Client) *borrowRig {
	t.Helper()
	reg := obsv.NewRegistry()
	b := NewBroker(BrokerConfig{MaxRetainedPerPartition: 64, FlowCapacity: 1 << 16, Metrics: reg, Now: now})
	if err := b.CreateTopic(TopicOutData, partitions); err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumer(client(t, b), TopicOutData, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &borrowRig{b: b, reg: reg, c: c}
}

// TestPollEachMatchesPollInto holds PollEach against PollInto: two brokers
// fed the same records, one drained by each, over every kind of client a
// consumer treats differently — one that lends its log, a pipelined
// connection whose response frames are lent, and a wrapper that can only
// Fetch. After every poll the messages, Offsets() and the running count
// of messages and wire bytes each consumer handed out agree, and so does everything the brokers count about their readers: BytesOut, the
// fetched metrics and the gate occupancy. max lands before, inside, at the
// end of and past a partition's backlog, retention drops unread records
// (the below-base clamp), and partitions go down and come back.
func TestPollEachMatchesPollInto(t *testing.T) {
	clients := []struct {
		name   string
		client func(t *testing.T, b *Broker) Client
	}{
		{"in process", func(_ *testing.T, b *Broker) Client { return NewInProcClient(b) }},
		{"pipelined TCP", func(t *testing.T, b *Broker) Client { return dialTest(t, b, ServerConfig{}, DialConfig{Window: 2}) }},
		{"client-only TCP", func(t *testing.T, b *Broker) Client {
			c := dialTest(t, b, ServerConfig{}, DialConfig{})
			return inTurn{c, c.Fetch}
		}},
		{"wrapped", func(_ *testing.T, b *Broker) Client {
			c := NewInProcClient(b)
			return inTurn{c, c.Fetch}
		}},
	}
	const partitions = 3
	for _, cl := range clients {
		t.Run(cl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			clock := time.Unix(1_600_000_000, 0)
			now := func() time.Time { return clock }
			into, each := newBorrowRig(t, partitions, now, cl.client), newBorrowRig(t, partitions, now, cl.client)
			backlog := make([]int, partitions)
			var got, want []Message
			var gm, gb, wm, wb int64 // messages and wire bytes lent, returned
			for round := 0; round < 80; round++ {
				clock = clock.Add(50 * time.Millisecond)
				for p := range backlog {
					n := rng.Intn(9)
					if round%11 == 5 {
						n = 80 // past the retention bound: unread records are dropped
					}
					for i := 0; i < n; i++ {
						key, value := []byte(fmt.Sprintf("car-%d", p)), make([]byte, rng.Intn(260))
						if rng.Intn(8) == 0 {
							key = nil
						}
						rng.Read(value)
						for _, r := range []*borrowRig{into, each} {
							if _, _, err := r.b.Produce(TopicOutData, int32(p), key, value); err != nil {
								t.Fatal(err)
							}
						}
					}
					// What the consumers have yet to read: retention may have
					// moved the base past their offset (the below-base clamp).
					hwm, _ := into.b.HighWaterMark(TopicOutData, int32(p))
					base := into.b.topics[TopicOutData].partitions[p].baseOffset()
					backlog[p] = int(hwm - max(base, into.c.Offsets()[p]))
				}
				down := int32(-1)
				if round%7 == 3 {
					down = int32(rng.Intn(partitions))
					into.b.SetPartitionDown(TopicOutData, down, true)
					each.b.SetPartitionDown(TopicOutData, down, true)
				}
				total := 0
				for _, n := range backlog {
					total += n
				}
				first := backlog[into.c.next]
				limit := []int{1, first, first + 1, total, total + 5, 1 + rng.Intn(total+2), 0}[round%7]
				what := fmt.Sprintf("round %d (max %d, backlog %v, down %d)", round, limit, backlog, down)

				var wantErr error
				want, wantErr = into.c.PollInto(want[:0], limit)
				got = got[:0]
				n, gotErr := each.c.PollEach(limit, func(m Message) {
					gm, gb = gm+1, gb+int64(m.WireSize())
					got = append(got, owned(m))
				})
				for _, m := range want {
					wm, wb = wm+1, wb+int64(m.WireSize())
				}
				samePoll(t, what, got, want, gotErr, wantErr)
				if n != len(got) || n > limit {
					t.Fatalf("%s: PollEach reported %d messages and lent %d", what, n, len(got))
				}
				for i := range got {
					if !sameMessage(got[i], want[i]) {
						t.Fatalf("%s: message %d lent as %+v, returned as %+v", what, i, got[i], want[i])
					}
				}
				if down >= 0 {
					into.b.SetPartitionDown(TopicOutData, down, false)
					each.b.SetPartitionDown(TopicOutData, down, false)
				}
				if fmt.Sprint(each.c.Offsets()) != fmt.Sprint(into.c.Offsets()) {
					t.Fatalf("%s: offsets %v after PollEach, %v after PollInto", what, each.c.Offsets(), into.c.Offsets())
				}
				if gm != wm || gb != wb {
					t.Fatalf("%s: %d msgs / %d B received by PollEach, %d / %d by PollInto", what, gm, gb, wm, wb)
				}
				if a, b := each.b.BytesOut(), into.b.BytesOut(); a != b {
					t.Fatalf("%s: broker BytesOut %d lending, %d copying", what, a, b)
				}
				for _, name := range []string{"broker.fetched.msgs", "broker.fetched.bytes"} {
					if a, b := each.reg.Counter(name).Value(), into.reg.Counter(name).Value(); a != b {
						t.Fatalf("%s: %s %d lending, %d copying", what, name, a, b)
					}
				}
				if a, b := each.b.FlowStats(TopicOutData).Occupancy, into.b.FlowStats(TopicOutData).Occupancy; a != b {
					t.Fatalf("%s: gate occupancy %d lending, %d copying", what, a, b)
				}
				RecycleMessages(want)
			}
		})
	}
}

// TestMalformedFetchResponseLendsNothing: a response frame that breaks off
// inside its third message is refused whole — PollEach's callback never
// sees the two good messages before it, no offset moves — exactly as
// PollInto returns none of them.
func TestMalformedFetchResponseLendsNothing(t *testing.T) {
	var canned []Message
	for i := 0; i < 4; i++ {
		canned = append(canned, Message{Topic: "t", Offset: int64(i), Key: []byte("car-1"), Value: make([]byte, 50)})
	}
	for _, poll := range []string{"PollEach", "PollInto"} {
		tc, err := Dial(cannedFetchServer(t, canned, 1, 140))
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		c := &Consumer{client: tc, topic: "t", offsets: make([]int64, 1), ends: make([]int64, 1)}
		lent, n, received := 0, 0, int64(0)
		if poll == "PollEach" {
			n, err = c.PollEach(64, func(m Message) { lent, received = lent+1, received+int64(m.WireSize()) })
		} else {
			var msgs []Message
			msgs, err = c.PollInto(nil, 64)
			n = len(msgs)
			for _, m := range msgs {
				received += int64(m.WireSize())
			}
		}
		if err == nil || n != 0 || lent != 0 || c.Offsets()[0] != 0 {
			t.Fatalf("%s over a truncated answer: %d messages (%d lent), offsets %v, error %v", poll, n, lent, c.Offsets(), err)
		}
		if received != 0 {
			t.Fatalf("%s over a truncated answer handed out %d B", poll, received)
		}
	}
}

// TestFramePoolSteadyState pins the frame pool: with the whole frame body
// recycled (not a view past its header, which the pool would find too
// short for the next frame of the same size), a buffered reader's length
// prefix read in place, the server reusing the connection's last topic
// name and its fetch answer's record writer bound once per connection, a
// warm request costs the allocator nothing — on either side, for a fetch
// that lends its answer and for a batched produce.
func TestFramePoolSteadyState(t *testing.T) {
	if PoolGuard {
		t.Skip("the pool guard records a call chain per recycle")
	}
	b := NewBroker(BrokerConfig{MaxRetainedPerPartition: 1024})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	tc := dialTest(t, b, ServerConfig{}, DialConfig{})
	recs := make([]BatchRecord, 64)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte("car-7"), Value: make([]byte, 200)}
	}
	res := make([]BatchResult, len(recs))
	c, err := NewConsumer(tc, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	lent := 0
	count := func(Message) { lent++ }
	round := func() {
		if err := tc.ProduceBatchInto("t", 0, recs, res); err != nil {
			t.Fatal(err)
		}
		if n, err := c.PollEach(len(recs), count); err != nil || n != len(recs) {
			t.Fatalf("PollEach = %d, %v; want %d", n, err, len(recs))
		}
	}
	for i := 0; i < 40; i++ {
		round() // warm the frame pool, the log's chunks and the encoders
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a batched produce and a fetch of %d records: %v allocs, want 0", len(recs), allocs)
	}
}

// TestBatchProducerSteadyStateAllocs: AddPooled encodes into the batch's
// own arena and Flush hands the client views of it, so a warm producer
// takes nothing from the allocator or the payload pool.
func TestBatchProducerSteadyStateAllocs(t *testing.T) {
	b := NewBroker(BrokerConfig{MaxRetainedPerPartition: 1024})
	if err := b.CreateTopic(TopicInData, 3); err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchProducer(NewInProcClient(b), TopicInData, AutoPartition, BatchProducerConfig{FlushEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	key, body := []byte("car-42"), make([]byte, 200)
	encode := func(dst []byte) []byte { return append(dst, body...) }
	window := func() {
		for i := 0; i < 256; i++ {
			if err := bp.AddPooled(key, encode); err != nil {
				t.Fatal(err)
			}
		}
		if err := bp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		window()
	}
	pooled := len(payloadFree)
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Errorf("256 AddPooled and a Flush: %v allocs, want 0", allocs)
	}
	if len(payloadFree) != pooled {
		t.Errorf("the payload pool went from %d to %d buffers: the batch should not touch it", pooled, len(payloadFree))
	}
}

// TestBatchProducerArena: what Flush sends is what was added, whichever way
// it was added — copied, encoded in place, or encoded by a callback that
// ignores the buffer it is handed — across arena growth, with nil and empty
// keys partitioned round-robin.
func TestBatchProducerArena(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchProducer(NewInProcClient(b), "t", 0, BatchProducerConfig{FlushEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var want []BatchRecord
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("car-%d", i))
		if i%5 == 0 {
			key = nil
		}
		value := make([]byte, i%7*100)
		for j := range value {
			value[j] = byte(i + j)
		}
		switch i % 3 {
		case 0:
			err = bp.Add(key, value)
		case 1:
			err = bp.AddPooled(key, func(dst []byte) []byte { return append(dst, value...) })
		case 2:
			err = bp.AddPooled(key, func([]byte) []byte { return append([]byte(nil), value...) })
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, BatchRecord{Key: key, Value: value})
	}
	if bp.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", bp.Len(), len(want))
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Fetch("t", 0, 0, len(want)+1)
	if err != nil || len(got) != len(want) {
		t.Fatalf("fetched %d records, %v; want %d", len(got), err, len(want))
	}
	for i := range got {
		if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) || got[i].Value == nil {
			t.Fatalf("record %d: %q -> %d B, want %q -> %d B", i, got[i].Key, len(got[i].Value), want[i].Key, len(want[i].Value))
		}
	}
}

package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
)

// inTurn is the reference the batched and lent paths are held against: a
// Client that reads through a cloning fetch, a partition at a time, and
// lends the clones, and that writes a batch one Produce at a time.
type inTurn struct {
	Client
	fetch func(topic string, partition int32, offset int64, max int) ([]Message, error)
}

// readCopies reads one partition through c's FetchEach and returns pooled
// clones of what it lent, or the read's error.
func readCopies(c Client, topic string, partition int32, offset int64, max int) ([]Message, error) {
	reads := []PartitionRead{{Partition: partition, Offset: offset}}
	var out []Message
	c.FetchEach(topic, reads, max, func(m Message) { out = append(out, m.owning()) })
	return out, reads[0].Err
}

func (c inTurn) FetchEach(topic string, reads []PartitionRead, max int, fn func(Message)) int {
	return FetchInTurn(reads, max, func(one []PartitionRead, max int) int {
		msgs, err := c.fetch(topic, one[0].Partition, one[0].Offset, max)
		one[0].Err = err
		for _, m := range msgs {
			fn(m)
		}
		RecycleMessages(msgs)
		return len(msgs)
	})
}

func (c inTurn) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	return ProduceInTurn(recs, res, func(key, value []byte) (int32, int64, error) {
		return c.Produce(topic, partition, key, value)
	})
}

func dialTest(t *testing.T, b *Broker, server ServerConfig, dial DialConfig) *TCPClient {
	t.Helper()
	s, err := NewServerCfg(b, "127.0.0.1:0", server)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c, err := DialCfg(s.Addr(), dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// fakePeer accepts one connection and hands it to serve, closing it when
// serve returns — the server side of a test that needs a peer which
// misbehaves or allocates nothing.
func fakePeer(t testing.TB, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	return ln.Addr().String()
}

// fakeServer is a fakePeer that first answers the hello as a server
// would.
func fakeServer(t testing.TB, serve func(conn net.Conn)) string {
	return fakePeer(t, func(conn net.Conn) {
		if _, err := readFrame(conn, DefaultMaxFrameSize); err != nil {
			return
		}
		if _, err := conn.Write(helloFrame(respHello, protocolVersion, DefaultMaxFrameSize, 0)); err != nil {
			return
		}
		serve(conn)
	})
}

// idleWindow fails the test unless every window token and response channel
// of the connection is back where it belongs.
func idleWindow(t *testing.T, c *TCPClient) {
	t.Helper()
	p := c.pipe
	if len(p.window) != cap(p.window) || len(p.free) != cap(p.free) {
		t.Fatalf("connection not idle: %d/%d window tokens, %d/%d response channels",
			len(p.window), cap(p.window), len(p.free), cap(p.free))
	}
}

func samePoll(t *testing.T, what string, got, want []Message, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, sequential loop returned %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, sequential loop returned %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Topic != w.Topic || g.Partition != w.Partition || g.Offset != w.Offset ||
			string(g.Key) != string(w.Key) || string(g.Value) != string(w.Value) || !g.AppendedAt.Equal(w.AppendedAt) {
			t.Fatalf("%s: message %d is %s/%d@%d %q, sequential loop returned %s/%d@%d %q",
				what, i, g.Topic, g.Partition, g.Offset, g.Value, w.Topic, w.Partition, w.Offset, w.Value)
		}
	}
}

// TestPipelinedPollMatchesSequential drives two consumers over one broker
// in lock step — one polling in pipelined rounds, one reading in turn
// through Fetch (inTurn) — with seeded uneven appends between polls, and demands
// the same messages in the same order, the same error, the same offsets and
// the same totals after every poll. max lands before, inside, exactly at
// the end of and past a partition's backlog; partitions go down and come
// back; the narrow window forces a round per two partitions.
func TestPipelinedPollMatchesSequential(t *testing.T) {
	cases := []struct {
		name       string
		partitions int
		window     int
	}{
		{"3 partitions", 3, 0},
		{"1 partition", 1, 0},
		{"5 partitions on a window of 2", 5, 2},
		{"8 partitions on a window of 3", 8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + tc.partitions)))
			b := NewBroker(BrokerConfig{})
			if err := b.CreateTopic("t", tc.partitions); err != nil {
				t.Fatal(err)
			}
			conn := dialTest(t, b, ServerConfig{}, DialConfig{Window: tc.window})
			other := dialTest(t, b, ServerConfig{}, DialConfig{Window: tc.window})
			piped, err := NewConsumer(conn, "t", 0)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := NewConsumer(inTurn{other, other.Fetch}, "t", 0)
			if err != nil {
				t.Fatal(err)
			}

			// An empty topic first.
			got, gotErr := piped.PollInto(nil, 10)
			want, wantErr := seq.PollInto(nil, 10)
			samePoll(t, "empty topic", got, want, gotErr, wantErr)

			backlog := make([]int, tc.partitions)
			seqNo := 0
			var gm, gb, wm, wb int64 // messages and wire bytes received, each side
			for round := 0; round < 60; round++ {
				for p := range backlog {
					n := rng.Intn(7) // uneven, sometimes nothing
					if rng.Intn(5) == 0 {
						n = 0
					}
					for i := 0; i < n; i++ {
						seqNo++
						if _, _, err := b.Produce("t", int32(p), []byte(fmt.Sprintf("k%d", p)), []byte(fmt.Sprintf("v%d", seqNo))); err != nil {
							t.Fatal(err)
						}
					}
					backlog[p] += n
				}
				down := int32(-1)
				if round%7 == 3 {
					down = int32(rng.Intn(tc.partitions))
					b.SetPartitionDown("t", down, true)
				}
				total := 0
				for _, n := range backlog {
					total += n
				}
				// Cut before, inside and exactly at a partition's end, at the
				// whole backlog, and past it.
				first := backlog[piped.next]
				max := []int{1, first, first + 1, total, total + 5, 1 + rng.Intn(total+2)}[round%6]
				if max <= 0 {
					max = 1
				}
				got, gotErr = piped.PollInto(got[:0], max)
				want, wantErr = seq.PollInto(want[:0], max)
				what := fmt.Sprintf("round %d (max %d, backlog %v, down %d)", round, max, backlog, down)
				samePoll(t, what, got, want, gotErr, wantErr)
				if len(got) > max {
					t.Fatalf("%s: returned %d messages", what, len(got))
				}
				if down >= 0 {
					if total > backlog[down] && len(got) == 0 && max > 0 {
						t.Fatalf("%s: the healthy partitions did not drain", what)
					}
					b.SetPartitionDown("t", down, false)
				}
				for i := range got {
					backlog[got[i].Partition]--
				}
				if fmt.Sprint(piped.Offsets()) != fmt.Sprint(seq.Offsets()) {
					t.Fatalf("%s: offsets %v, sequential loop at %v", what, piped.Offsets(), seq.Offsets())
				}
				for i := range got {
					gm, gb = gm+1, gb+int64(got[i].WireSize())
				}
				for i := range want {
					wm, wb = wm+1, wb+int64(want[i].WireSize())
				}
				if gm != wm || gb != wb {
					t.Fatalf("%s: received %d msgs / %d B, sequential loop %d / %d", what, gm, gb, wm, wb)
				}
				RecycleMessages(got)
				RecycleMessages(want)
				idleWindow(t, conn)
			}
		})
	}
}

// TestBoundedWirePollCreditsOnlyWhatItDelivers: a poll of 100 over a
// 300-record backlog on three partitions releases the IN-DATA gate's
// credits for the 100 records it delivers and no more, over the wire as
// in process. The server reads the partitions in turn, each for what is
// still wanted; asking each for all 100 credited records the poll then
// dropped.
func TestBoundedWirePollCreditsOnlyWhatItDelivers(t *testing.T) {
	poll := func(wire bool) (int, int64) {
		b := NewBroker(BrokerConfig{FlowCapacity: 1 << 10})
		if err := b.CreateTopic(TopicInData, 3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, _, err := b.Produce(TopicInData, int32(i%3), nil, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		var client Client = NewInProcClient(b)
		if wire {
			client = dialTest(t, b, ServerConfig{}, DialConfig{})
		}
		c, err := NewConsumer(client, TopicInData, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.PollEach(100, func(Message) {})
		if err != nil {
			t.Fatal(err)
		}
		return n, b.FlowStats(TopicInData).Occupancy
	}
	n, inProc := poll(false)
	m, wire := poll(true)
	if n != 100 || m != 100 || inProc != 200 || wire != inProc {
		t.Fatalf("a poll of 100: %d delivered in process leaving occupancy %d, %d over the wire leaving %d; want 100 leaving 200 both ways", n, inProc, m, wire)
	}
}

// TestPipelinedPollConnectionKilledBeforeAnswers: the server reads a
// round's fetch frame, which carries every partition, and hangs up without
// answering it. The poll returns the error, moves no offset, and leaves no
// window token or response channel behind.
func TestPipelinedPollConnectionKilledBeforeAnswers(t *testing.T) {
	const partitions = 3
	asked := make(chan []PartitionRead, 1)
	addr := fakeServer(t, func(conn net.Conn) {
		defer close(asked)
		frame, err := readFrame(conn, DefaultMaxFrameSize)
		if err != nil || frame[0] != reqFetch {
			return
		}
		dec := frameDecoder(frame)
		_, _, reads, _ := decodeFetchRequest(&dec, nil)
		asked <- reads
		// Issued, not answered: hang up.
	})

	tc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	c := &Consumer{client: tc, topic: "t", offsets: []int64{5, 6, 7}, ends: make([]int64, 3)}
	msgs, err := c.PollInto(nil, 100)
	if err == nil || !errors.Is(err, errPipeBroken) || !strings.Contains(err.Error(), `fetch "t"/0`) {
		t.Fatalf("PollInto over a killed connection = %d messages, %v; want the first partition's broken-pipe error", len(msgs), err)
	}
	if len(msgs) != 0 {
		t.Fatalf("PollInto returned %d messages from a server that answered nothing", len(msgs))
	}
	if got := fmt.Sprint(c.Offsets()); got != "[5 6 7]" {
		t.Fatalf("offsets moved to %s", got)
	}
	if got := fmt.Sprint(<-asked); got != "[{0 5 <nil>} {1 6 <nil>} {2 7 <nil>}]" {
		t.Fatalf("the fetch frame asked for %s, want every partition from its offset", got)
	}
	idleWindow(t, tc)
	// The connection stays dead: the next poll fails at issue, as cleanly.
	if _, err := c.PollInto(nil, 100); err == nil {
		t.Fatal("poll over a dead connection succeeded")
	}
	idleWindow(t, tc)
}

// TestSharedConnectionPollsDoNotStarveEachOther: consumers of wide topics
// polling at once over one narrow connection each hold part of the window;
// none may wait for the rest while holding its own.
func TestSharedConnectionPollsDoNotStarveEachOther(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, _, err := b.Produce("t", int32(i%6), nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	conn := dialTest(t, b, ServerConfig{}, DialConfig{Window: 4})
	done := make(chan error, 4)
	for g := 0; g < cap(done); g++ {
		c, err := NewConsumer(conn, "t", 0)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			got := 0
			for got < 600 {
				msgs, err := c.Poll(50)
				if err != nil {
					done <- err
					return
				}
				got += len(msgs)
				RecycleMessages(msgs)
			}
			done <- nil
		}()
	}
	for g := 0; g < cap(done); g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	idleWindow(t, conn)
}

// answerSection is one section of a fetch answer a test encodes: the
// records of a partition from base on, or the broker's refusal.
type answerSection struct {
	partition int32
	base      int64
	msgs      []Message
	failure   string
}

// encodeAnswer encodes a respFetch frame of sections, cut bytes short, and
// returns each section's start in the frame.
func encodeAnswer(sections []answerSection, cut int) (frame []byte, at []int) {
	var enc wireEncoder
	enc.reset(respFetch)
	for _, s := range sections {
		start := enc.openSection(s.partition)
		at = append(at, start)
		if s.failure != "" {
			enc.failSection(start, s.failure)
			continue
		}
		for _, m := range s.msgs {
			enc.record(m)
		}
		enc.closeSection(start, len(s.msgs), s.base)
	}
	enc.buf = enc.buf[:len(enc.buf)-cut]
	return append([]byte(nil), enc.frame()...), at
}

// cannedFetchServer answers the hello, then every fetch frame with the
// same answer — sections sections of msgs each — under the request's
// correlation ID, the sections renumbered to the partitions the request
// reads, allocating nothing per request, so that a process-wide
// allocation count over a poll is the client's alone. A cut above zero
// ends the frame that many bytes early, inside its last section.
func cannedFetchServer(t testing.TB, msgs []Message, sections, cut int) string {
	t.Helper()
	all := make([]answerSection, sections)
	for i := range all {
		all[i].msgs = msgs
	}
	resp, at := encodeAnswer(all, cut)
	return fakeServer(t, func(conn net.Conn) {
		req := make([]byte, 4096)
		for {
			if _, err := io.ReadFull(conn, req[:4]); err != nil {
				return
			}
			n := binary.BigEndian.Uint32(req[:4])
			if _, err := io.ReadFull(conn, req[4:4+n]); err != nil {
				return
			}
			copy(resp[5:5+corrSize], req[5:5+corrSize])
			// Past the header: topic, max and the read count, then the
			// reads, each a partition and an offset.
			reads := req[frameHeaderSize+4+int(binary.BigEndian.Uint32(req[frameHeaderSize:]))+8:]
			for i, start := range at {
				copy(resp[start:start+4], reads[i*fetchReadSize:])
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	})
}

// TestPollIntoSteadyStateAllocs pins what a warm poll costs the allocator on
// the client's side of a loopback connection: nothing, whether the messages
// are lent out of the response frames or returned as pooled clones. Issue,
// await and decode add no closure per fetch and no message slice per
// answer, the reader goroutine reads the length prefix in place, and the
// frame pool gets whole frame bodies back.
func TestPollIntoSteadyStateAllocs(t *testing.T) {
	if PoolGuard {
		t.Skip("the pool guard records a call chain per recycle")
	}
	const partitions = 3
	for _, perFetch := range []int{0, 8} {
		var canned []Message
		for i := 0; i < perFetch; i++ {
			canned = append(canned, Message{Topic: "t", Offset: int64(i), Key: []byte("car-1"), Value: make([]byte, 200)})
		}
		tc, err := Dial(cannedFetchServer(t, canned, partitions, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		c := &Consumer{client: tc, topic: "t", offsets: make([]int64, partitions), ends: make([]int64, partitions)}
		var buf []Message
		pollInto := func() {
			buf, err = c.PollInto(buf[:0], 64)
			if err != nil || len(buf) != partitions*perFetch {
				t.Fatalf("PollInto = %d messages, %v; want %d", len(buf), err, partitions*perFetch)
			}
			RecycleMessages(buf)
		}
		lent := 0
		count := func(Message) { lent++ }
		pollEach := func() {
			if n, err := c.PollEach(64, count); err != nil || n != partitions*perFetch {
				t.Fatalf("PollEach = %d messages, %v; want %d", n, err, partitions*perFetch)
			}
		}
		for name, poll := range map[string]func(){"PollInto": pollInto, "PollEach": pollEach} {
			for i := 0; i < 20; i++ {
				poll() // warm the frame and payload pools
			}
			if allocs := testing.AllocsPerRun(200, poll); allocs != 0 {
				t.Errorf("%s, %d messages a fetch: %v allocs/op, want 0", name, perFetch, allocs)
			}
		}
	}
}

package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func startServer(t *testing.T) (*Broker, *Server) {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return b, s
}

func TestTCPEndToEnd(t *testing.T) {
	_, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.CreateTopic(TopicInData, 3); err != nil {
		t.Fatal(err)
	}
	n, err := c.PartitionCount(TopicInData)
	if err != nil || n != 3 {
		t.Fatalf("PartitionCount = %d, %v", n, err)
	}
	part, off, err := c.Produce(TopicInData, AutoPartition, []byte("car-7"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Fetch(TopicInData, part, off, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Value) != "payload" || string(msgs[0].Key) != "car-7" {
		t.Fatalf("msgs = %+v", msgs)
	}
	if msgs[0].Offset != off || msgs[0].Partition != part {
		t.Errorf("metadata mismatch: %+v", msgs[0])
	}
	if msgs[0].AppendedAt.IsZero() {
		t.Error("AppendedAt lost on the wire")
	}
}

func TestTCPProducerConsumer(t *testing.T) {
	_, s := startServer(t)
	admin, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.CreateTopic(TopicOutData, DefaultPartitions); err != nil {
		t.Fatal(err)
	}

	pc, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cc, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	p, err := NewProducer(pc, TopicOutData)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(cc, TopicOutData, 0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		if _, _, err := p.Send([]byte("k"), []byte(fmt.Sprintf("warn-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got int
	deadline := time.Now().Add(2 * time.Second)
	for got < 20 && time.Now().Before(deadline) {
		msgs, err := cons.Poll(8)
		if err != nil {
			t.Fatal(err)
		}
		got += len(msgs)
	}
	if got != 20 {
		t.Errorf("consumed %d over TCP, want 20", got)
	}
}

func TestTCPErrorMapping(t *testing.T) {
	_, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Produce("missing", 0, nil, []byte("x")); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("err = %v, want ErrUnknownTopic", err)
	}
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 9); !errors.Is(err, ErrTopicExists) {
		t.Errorf("err = %v, want ErrTopicExists", err)
	}
	if _, err := c.Fetch("t", 42, 0, 1); !errors.Is(err, ErrBadPartition) {
		t.Errorf("err = %v, want ErrBadPartition", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	b, s := startServer(t)
	admin, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	_ = admin.Close()

	const clients = 6
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				if _, _, err := c.Produce("t", AutoPartition, []byte(fmt.Sprintf("c%d", i)), []byte("v")); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var total int64
	for part := int32(0); part < 3; part++ {
		hwm, err := b.HighWaterMark("t", part)
		if err != nil {
			t.Fatal(err)
		}
		total += hwm
	}
	if total != clients*perClient {
		t.Errorf("server received %d messages, want %d", total, clients*perClient)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, s := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := Dial(s.Addr()); err == nil {
		t.Error("dial after close should fail")
	}
}

// decodeAnswer checks a fetch answer payload to reads and, if it passes,
// returns pooled clones of the records it lends, or the error.
func decodeAnswer(payload []byte, topic string, reads []PartitionRead, max int) ([]Message, error) {
	dec := wireDecoder{buf: payload}
	if _, err := dec.walkAnswer(topic, reads, max, nil); err != nil {
		return nil, err
	}
	dec.pos = 0
	var out []Message
	_, err := dec.walkAnswer(topic, reads, max, func(m Message) { out = append(out, m.owning()) })
	return out, err
}

func TestWireCodecRoundTripProperty(t *testing.T) {
	f := func(topic string, partition int32, offset int64, key, value []byte) bool {
		if len(topic) > 1000 || len(key) > 10000 || len(value) > 10000 {
			return true
		}
		in := Message{Key: key, Value: value, AppendedAt: time.Unix(0, 1467331200000000000)}
		frame, _ := encodeAnswer([]answerSection{{partition: partition, base: offset, msgs: []Message{in}}}, 0)
		out, err := decodeAnswer(frame[frameHeaderSize:], topic, []PartitionRead{{Partition: partition}}, 1)
		if err != nil || len(out) != 1 {
			return false
		}
		m := out[0]
		keyEq := bytes.Equal(m.Key, key) || (len(key) == 0 && len(m.Key) == 0)
		valEq := bytes.Equal(m.Value, value) || (len(value) == 0 && len(m.Value) == 0)
		return m.Topic == topic && m.Partition == partition && m.Offset == offset &&
			keyEq && valEq && m.AppendedAt.UnixNano() == 1467331200000000000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireDecoderTruncatedInput(t *testing.T) {
	frame, _ := encodeAnswer([]answerSection{{msgs: []Message{{Key: []byte("k"), Value: []byte("v")}}}}, 0)
	// Chop the payload progressively; the decoder must error, not panic.
	for cut := frameHeaderSize; cut < len(frame)-1; cut++ {
		if msgs, err := decodeAnswer(frame[frameHeaderSize:cut], "t", []PartitionRead{{}}, 1<<20); err == nil {
			t.Fatalf("truncated frame of %d bytes decoded successfully (%d messages)", cut, len(msgs))
		}
	}
}

// TestRemoteErrorEmptyTopicName is the regression test for a decode gap:
// the broker refuses CreateTopic("") with ErrEmptyTopicName, but
// remoteError did not reconstruct it, so over TCP the refusal arrived as
// an opaque remote failure — errors.Is never matched and the retry
// client redialed a permanent refusal as if the transport had failed.
func TestRemoteErrorEmptyTopicName(t *testing.T) {
	_, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.CreateTopic("", 1)
	if !errors.Is(err, ErrEmptyTopicName) {
		t.Fatalf("CreateTopic(\"\") over TCP = %v, want ErrEmptyTopicName", err)
	}
	if !brokerError(err) {
		t.Error("brokerError must classify the reconstructed ErrEmptyTopicName as a broker refusal, not a transport error")
	}
}

// TestServerAnswersUnknownRequestType: a request type the server does not
// know — 24 and 25, the gap after the replication types, or 99 — gets a
// respError carrying its own correlation ID, and the connection goes on
// serving: the next produce on it succeeds.
func TestServerAnswersUnknownRequestType(t *testing.T) {
	b, s := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Write(helloFrame(reqHello, protocolVersion, DefaultMaxFrameSize, 8)); err != nil {
		t.Fatal(err)
	}
	if hello, err := readFrame(raw, DefaultMaxFrameSize); err != nil || hello[0] != respHello {
		t.Fatalf("hello answer %v, %v", hello, err)
	}

	var enc wireEncoder
	ask := func(corr uint32, msgType byte) (byte, wireDecoder) {
		t.Helper()
		enc.corr = corr
		enc.reset(msgType)
		if msgType == reqProduce {
			enc.str("t")
			enc.u32(0)
			enc.bytes(nil)
			enc.bytes([]byte("v"))
		}
		if _, err := raw.Write(enc.frame()); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(raw, DefaultMaxFrameSize)
		if err != nil {
			t.Fatalf("type %d: %v", msgType, err)
		}
		if got := binary.BigEndian.Uint32(resp[1:]); got != corr {
			t.Fatalf("type %d: answer carries correlation ID %d, want %d", msgType, got, corr)
		}
		return resp[0], wireDecoder{buf: resp[1+corrSize:]}
	}
	for i, msgType := range []byte{24, 25, 99} {
		typ, dec := ask(uint32(40+i), msgType)
		if msg := dec.str(); typ != respError || !strings.Contains(msg, "unknown request type") {
			t.Fatalf("type %d: answered type %d %q, want respError naming an unknown type", msgType, typ, msg)
		}
	}
	typ, dec := ask(50, reqProduce)
	if part, off := dec.u32(), dec.u64(); typ != respProduce || dec.err != nil || part != 0 || off != 0 {
		t.Fatalf("produce after the unknown types: type %d, partition %d offset %d (%v)", typ, part, off, dec.err)
	}
}

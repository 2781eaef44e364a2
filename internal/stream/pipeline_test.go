package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
)

// TestPipelineNegotiation covers the hello exchange, the only protocol
// there is: a client and a server agree on v3 in exactly these bytes; a
// client refuses a peer that does not answer with a v3 hello; a server
// closes a peer that opens with anything but one, before handling a
// request.
func TestPipelineNegotiation(t *testing.T) {
	// Window 8, frame limit 4096 B. The server announces no window.
	clientHello := []byte{0, 0, 0, 13, 20, 0, 0, 0, 3, 0, 0, 0x10, 0, 0, 0, 0, 8}
	serverHello := []byte{0, 0, 0, 13, 120, 0, 0, 0, 3, 0, 0, 0x10, 0, 0, 0, 0, 0}
	dial := DialConfig{Window: 8, MaxFrameSize: 4096}

	t.Run("new client, new server", func(t *testing.T) {
		got := make(chan []byte, 1)
		addr := fakePeer(t, func(conn net.Conn) {
			hello := make([]byte, len(clientHello))
			if _, err := io.ReadFull(conn, hello); err != nil {
				return
			}
			got <- hello
			_, _ = conn.Write(serverHello)
			_, _ = io.Copy(io.Discard, conn)
		})
		c, err := DialCfg(addr, dial)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if hello := <-got; !bytes.Equal(hello, clientHello) {
			t.Fatalf("client hello % x, want % x", hello, clientHello)
		}
		if c.peerMax != 4096 {
			t.Fatalf("peerMax = %d, want the announced 4096", c.peerMax)
		}

		b := NewBroker(BrokerConfig{})
		s, err := NewServerCfg(b, "127.0.0.1:0", ServerConfig{MaxFrameSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		raw, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := raw.Write(clientHello); err != nil {
			t.Fatal(err)
		}
		answer := make([]byte, len(serverHello))
		if _, err := io.ReadFull(raw, answer); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(answer, serverHello) {
			t.Fatalf("server hello % x, want % x", answer, serverHello)
		}

		// The client works end to end on the connection the hello opened.
		c, err = DialCfg(s.Addr(), dial)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.CreateTopic("t", 2); err != nil {
			t.Fatal(err)
		}
		part, off, err := c.Produce("t", AutoPartition, []byte("k"), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := c.Fetch("t", part, off, 10)
		if err != nil || len(msgs) != 1 || string(msgs[0].Value) != "v" {
			t.Fatalf("Fetch = %v, %v", msgs, err)
		}
		if n, err := c.PartitionCount("t"); err != nil || n != 2 {
			t.Fatalf("PartitionCount = %d, %v", n, err)
		}
		if topics, err := c.ListTopics(); err != nil || len(topics) != 1 {
			t.Fatalf("ListTopics = %v, %v", topics, err)
		}
	})

	t.Run("new client, old server", func(t *testing.T) {
		// A pre-v2 server rejects type 20 as unknown; a server that
		// answers a hello with version 1 or 2 is no better — a v2 server
		// would misread every fetch frame.
		respErr := binary.BigEndian.AppendUint32([]byte{0, 0, 0, 0, respError}, 5)
		respErr = append(respErr, "nope!"...)
		binary.BigEndian.PutUint32(respErr, uint32(len(respErr)-4))
		for _, answer := range [][]byte{respErr, helloFrame(respHello, 1, 4096, 0), helloFrame(respHello, 2, 4096, 0)} {
			addr := fakePeer(t, func(conn net.Conn) {
				if _, err := readFrame(conn, DefaultMaxFrameSize); err == nil {
					_, _ = conn.Write(answer)
					_, _ = io.Copy(io.Discard, conn)
				}
			})
			if c, err := DialCfg(addr, dial); err == nil {
				c.Close()
				t.Fatalf("dial accepted the answer % x", answer)
			}
		}
	})

	t.Run("old client, new server", func(t *testing.T) {
		var create wireEncoder
		create.reset(reqCreateTopic)
		create.str("t")
		create.u32(1)
		v2Create := append([]byte(nil), create.frame()...)
		// The same request in v1 framing: no correlation ID.
		v1Create := append(binary.BigEndian.AppendUint32(nil, uint32(len(v2Create)-4-corrSize)), reqCreateTopic)
		v1Create = append(v1Create, v2Create[frameHeaderSize:]...)
		openings := map[string][]byte{
			"v1 request first": v1Create,
			"version-1 hello":  append(helloFrame(reqHello, 1, 4096, 8), v2Create...),
			"version-2 hello":  append(helloFrame(reqHello, 2, 4096, 8), v2Create...),
		}
		for name, opening := range openings {
			b := NewBroker(BrokerConfig{})
			s, err := NewServer(b, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			raw, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := raw.Write(opening); err != nil {
				t.Fatal(err)
			}
			n, err := raw.Read(make([]byte, 64))
			var ne net.Error
			if n > 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("%s: read %d bytes, %v; want the server to close the connection", name, n, err)
			}
			raw.Close()
			if topics := b.Topics(); len(topics) != 0 {
				t.Fatalf("%s: the broker holds %v", name, topics)
			}
		}
	})
}

// TestPipelineConcurrentProducers multiplexes many goroutines over one
// pipelined connection: every acknowledged record must be durable and
// distinct.
func TestPipelineConcurrentProducers(t *testing.T) {
	b, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	offsets := make([][]int64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, off, err := c.Produce("t", 0, nil, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs[w] = err
					return
				}
				offsets[w] = append(offsets[w], off)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	seen := make(map[int64]bool, workers*perWorker)
	for _, offs := range offsets {
		for _, off := range offs {
			if seen[off] {
				t.Fatalf("offset %d acknowledged twice", off)
			}
			seen[off] = true
		}
	}
	if got := len(seen); got != workers*perWorker {
		t.Fatalf("acked %d offsets, want %d", got, workers*perWorker)
	}
	if hw, _ := b.HighWaterMark("t", 0); hw != int64(workers*perWorker) {
		t.Fatalf("high watermark %d, want %d", hw, workers*perWorker)
	}
}

// TestBatchProduceRoundTrip sends a mixed batch (keyed, keyless, empty
// value) in one frame and verifies every record's result and durability.
func TestBatchProduceRoundTrip(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		_, s := startServer(t)
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.CreateTopic("t", 3); err != nil {
			t.Fatal(err)
		}
		recs := []BatchRecord{
			{Key: []byte("car-1"), Value: []byte("v0")},
			{Value: []byte("v1")}, // keyless: round-robin
			{Key: []byte("car-2"), Value: []byte("v2")},
			{Key: []byte("car-1"), Value: nil}, // empty value
		}
		res := make([]BatchResult, len(recs))
		if err := c.ProduceBatchInto("t", AutoPartition, recs, res); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("record %d: %v", i, r.Err)
			}
			msgs, err := c.Fetch("t", r.Partition, r.Offset, 1)
			if err != nil || len(msgs) != 1 {
				t.Fatalf("record %d not durable: %v, %v", i, msgs, err)
			}
			if !bytes.Equal(msgs[0].Value, recs[i].Value) {
				t.Fatalf("record %d: fetched %q want %q", i, msgs[0].Value, recs[i].Value)
			}
		}
		// Same key must land on the same partition.
		if res[0].Partition != res[3].Partition {
			t.Fatalf("key affinity broken: partitions %d vs %d", res[0].Partition, res[3].Partition)
		}
	})
}

// TestBatchPerRecordErrors mixes records against a missing topic into the
// batch response: the batch itself succeeds, the failures are
// per-record.
func TestBatchPerRecordErrors(t *testing.T) {
	_, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := []BatchRecord{{Value: []byte("v")}}
	res := make([]BatchResult, 1)
	if err := c.ProduceBatchInto("nope", AutoPartition, recs, res); err != nil {
		t.Fatalf("transport error for an application failure: %v", err)
	}
	if !errors.Is(res[0].Err, ErrUnknownTopic) {
		t.Fatalf("res[0].Err = %v, want ErrUnknownTopic", res[0].Err)
	}
}

// TestBatchBackpressureResults verifies a full admission gate surfaces
// per-record backpressure (with the broker's retry hint) through the
// batch path.
func TestBatchBackpressureResults(t *testing.T) {
	b := NewBroker(BrokerConfig{FlowCapacity: 2})
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	recs := make([]BatchRecord, 8)
	for i := range recs {
		recs[i] = BatchRecord{Value: []byte("v")}
	}
	res := make([]BatchResult, len(recs))
	if err := c.ProduceBatchInto("t", 0, recs, res); err != nil {
		t.Fatal(err)
	}
	var ok, refused int
	for _, r := range res {
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, flow.ErrBackpressure):
			refused++
			if r.RetryAfter <= 0 {
				t.Fatalf("backpressure without a retry hint: %+v", r)
			}
		default:
			t.Fatalf("unexpected error class: %v", r.Err)
		}
	}
	if ok == 0 || refused == 0 || ok+refused != len(recs) {
		t.Fatalf("ok=%d refused=%d over %d records: want a mix", ok, refused, len(recs))
	}
}

// TestPendingBatchWindow keeps several batches in flight before awaiting
// any of them.
func TestPendingBatchWindow(t *testing.T) {
	b, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	const batches, per = 4, 16
	pending := make([]PendingBatch, 0, batches)
	for bi := 0; bi < batches; bi++ {
		recs := make([]BatchRecord, per)
		for i := range recs {
			recs[i] = BatchRecord{Value: []byte(fmt.Sprintf("b%d-%d", bi, i))}
		}
		pb, err := c.ProduceBatchIssue("t", 0, recs)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pb)
	}
	res := make([]BatchResult, per)
	for bi := range pending {
		if err := pending[bi].Await(res); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("batch %d record %d: %v", bi, i, r.Err)
			}
		}
	}
	if hw, _ := b.HighWaterMark("t", 0); hw != int64(batches*per) {
		t.Fatalf("high watermark %d, want %d", hw, batches*per)
	}
}

// TestBatchProducerFlush drives the accumulating producer over both
// client shapes and checks the OnResult stream and durability.
func TestBatchProducerFlush(t *testing.T) {
	b, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	var results int
	bp, err := NewBatchProducer(c, "t", AutoPartition, BatchProducerConfig{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	bp.OnResult = func(r BatchResult) {
		if r.Err != nil {
			t.Errorf("record refused: %v", r.Err)
		}
		results++
	}
	key := []byte("car-9")
	for i := 0; i < 20; i++ {
		if err := bp.Add(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if results != 20 {
		t.Fatalf("OnResult saw %d records, want 20", results)
	}
	hw0, _ := b.HighWaterMark("t", 0)
	hw1, _ := b.HighWaterMark("t", 1)
	if total := hw0 + hw1; total != 20 {
		t.Fatalf("broker holds %d records, want 20", total)
	}
}

// TestMaxFrameSizeServerReject: a server with a small frame limit must
// refuse an oversized request frame by dropping the connection, and the
// broker must not see the record.
func TestMaxFrameSizeServerReject(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	s, err := NewServerCfg(b, "127.0.0.1:0", ServerConfig{MaxFrameSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A single-record Produce: unlike a batch, it has no client-side size
	// check to stop the oversized frame before the server sees it.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Produce("t", 0, nil, make([]byte, 1024)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if hw, _ := b.HighWaterMark("t", 0); hw != 0 {
		t.Fatalf("oversized record reached the broker (hw=%d)", hw)
	}
}

// TestMaxFrameSizeClientReject: a client with a small frame limit must
// reject an oversized response frame instead of trusting the length
// prefix.
func TestMaxFrameSizeClientReject(t *testing.T) {
	_, s := startServer(t)
	big, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if err := big.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := big.Produce("t", 0, nil, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	t.Run("pipelined", func(t *testing.T) {
		small, err := DialCfg(s.Addr(), DialConfig{MaxFrameSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer small.Close()
		_, err = small.Fetch("t", 0, 0, 10)
		if !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("Fetch err = %v, want errFrameTooLarge", err)
		}
	})
}

// TestBatchIssueRejectsOversizedFrame: the client refuses to assemble a
// batch frame bigger than the server's announced limit instead of
// having it rejected on arrival.
func TestBatchIssueRejectsOversizedFrame(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	s, err := NewServerCfg(b, "127.0.0.1:0", ServerConfig{MaxFrameSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.peerMax != 512 {
		t.Fatalf("peerMax = %d, want the server's announced 512", c.peerMax)
	}
	recs := []BatchRecord{{Value: make([]byte, 1024)}}
	if _, err := c.ProduceBatchIssue("t", 0, recs); err == nil {
		t.Fatal("oversized batch frame issued")
	}
}

// TestPipelineTimeoutPoisonsConnection: a request timeout on a pipelined
// connection must fail fast and kill the connection (late responses can
// no longer line up), not hang or misdeliver.
func TestPipelineTimeoutPoisonsConnection(t *testing.T) {
	// A peer that answers the hello, then swallows every request.
	addr := fakeServer(t, func(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) })
	c, err := DialCfg(addr, DialConfig{RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, _, err = c.Produce("t", 0, nil, []byte("v"))
	if err == nil {
		t.Fatal("request against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The connection is poisoned: subsequent requests fail immediately.
	if _, _, err := c.Produce("t", 0, nil, []byte("v")); err == nil {
		t.Fatal("poisoned connection accepted another request")
	}
}

// TestHelloTimeoutFailsDial: a peer that reads the hello and never answers
// fails the dial within the request timeout instead of hanging it (and,
// behind it, a pool's lazy redial holding its link's lock).
func TestHelloTimeoutFailsDial(t *testing.T) {
	addr := fakePeer(t, func(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) })
	start := time.Now()
	c, err := DialCfg(addr, DialConfig{RequestTimeout: 50 * time.Millisecond})
	if err == nil {
		c.Close()
		t.Fatal("dial against a silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial gave up after %v", elapsed)
	}
}

// TestPoolKeyAffinityAndFailover: keyed requests stick to one link;
// killing that link's connection mid-stream redials without losing any
// acknowledged record.
func TestPoolConnKillMidWindowLosesNoAckedRecords(t *testing.T) {
	b, s := startServer(t)
	reg := obsv.NewRegistry()
	pc, err := DialPool(s.Addr(), PoolConfig{
		Size:    2,
		Metrics: reg,
		Breaker: flow.BreakerConfig{FailThreshold: 3, Cooldown: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}

	const total = 500
	key := []byte("car-1")
	home := pc.linkIndex(key) // keyed requests stick to this link
	acked := make(map[int64]string, total)
	for i := 0; i < total; i++ {
		if i == total/2 {
			// Kill the home link's connection mid-window, underneath the
			// pool.
			pc.links[home].mu.Lock()
			victim := pc.links[home].c
			pc.links[home].mu.Unlock()
			if victim != nil {
				_ = victim.conn.Close()
			}
		}
		val := fmt.Sprintf("v%d", i)
		_, off, err := pc.Produce("t", 0, key, []byte(val))
		if err != nil {
			// The request that hit the dying link may fail; unacked
			// records make no durability promise.
			continue
		}
		acked[off] = val
	}
	if len(acked) < total/2 {
		t.Fatalf("only %d/%d records acked — pool did not recover", len(acked), total)
	}
	// Every acknowledged record must be durable with the right payload.
	msgs, err := b.Fetch("t", 0, 0, total+10)
	if err != nil {
		t.Fatal(err)
	}
	byOff := make(map[int64]string, len(msgs))
	for _, m := range msgs {
		byOff[m.Offset] = string(m.Value)
	}
	for off, want := range acked {
		if got, ok := byOff[off]; !ok || got != want {
			t.Fatalf("acked offset %d: stored %q/%v, want %q", off, got, ok, want)
		}
	}
	if n := reg.Counter("wire.transport_errors").Value(); n == 0 {
		t.Fatal("conn kill left no trace in wire.transport_errors")
	}
}

// TestPoolBreakerTripRecovery is the full chaos loop: server down →
// breakers trip (observable in wire.* metrics) → pool fails fast with
// flow.ErrCircuitOpen → server back → half-open probe closes the breaker
// and traffic resumes.
func TestPoolBreakerTripRecovery(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerOnCfg(b, ln, ServerConfig{})
	addr := s.Addr()

	now := time.Unix(0, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	reg := obsv.NewRegistry()
	pc, err := DialPool(addr, PoolConfig{
		Size:    2,
		Metrics: reg,
		Breaker: flow.BreakerConfig{FailThreshold: 2, Cooldown: time.Second, Now: clock},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}

	// Take the server down and hammer until every link's breaker trips.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := pc.Produce("t", 0, nil, []byte("v"))
		if errors.Is(err, flow.ErrCircuitOpen) {
			break
		}
		if err == nil {
			t.Fatal("produce succeeded against a closed server")
		}
		if time.Now().After(deadline) {
			t.Fatal("breakers never tripped")
		}
	}
	if trips := reg.Counter("wire.breaker.trips").Value(); trips < 2 {
		t.Fatalf("wire.breaker.trips = %d, want >= 2", trips)
	}
	if open := reg.Gauge("wire.breaker.open").Value(); open != 2 {
		t.Fatalf("wire.breaker.open = %d, want 2", open)
	}

	// Bring the server back on the same address, then release the
	// cooldown: the next request is the half-open probe and must close
	// the breaker.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	s2 := NewServerOnCfg(b, ln2, ServerConfig{})
	defer s2.Close()
	nowMu.Lock()
	now = now.Add(2 * time.Second)
	nowMu.Unlock()

	var lastErr error
	for i := 0; i < 10; i++ {
		if _, _, lastErr = pc.Produce("t", 0, nil, []byte("back")); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("pool did not recover: %v", lastErr)
	}
	if probes := reg.Counter("wire.breaker.probes").Value(); probes == 0 {
		t.Fatal("recovery happened without a half-open probe")
	}
	if open := reg.Gauge("wire.breaker.open").Value(); open >= 2 {
		t.Fatalf("wire.breaker.open = %d after recovery", open)
	}
}

// TestPoolCircuitOpenFloorsVehiclePacer closes the control loop the
// breaker exists for: flow.ErrCircuitOpen from the pool must drive an
// AIMD pacer straight to its decimation floor.
func TestPoolCircuitOpenFloorsPacer(t *testing.T) {
	reg := obsv.NewRegistry()
	pacer := flow.NewPacer(flow.PacerConfig{MaxDecimation: 16, Metrics: reg})
	decimation := reg.Gauge("flow.pacer.decimation")
	if decimation.Value() != 1 {
		t.Fatal("pacer not at full rate")
	}
	// The vehicle-side contract, exercised without a vehicle: a sender
	// that sees circuit-open cuts to the floor at once.
	err := error(flow.ErrCircuitOpen)
	if errors.Is(err, flow.ErrCircuitOpen) {
		pacer.Floor()
	}
	if got := decimation.Value(); got != 16 {
		t.Fatalf("Decimation = %d after Floor, want 16", got)
	}
}

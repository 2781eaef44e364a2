package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// restartableServer serves a broker on a fixed port and can be bounced.
type restartableServer struct {
	t      *testing.T
	broker *Broker
	addr   string
	srv    *Server
}

func newRestartableServer(t *testing.T) *restartableServer {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	// Reserve a port deterministically by binding :0 once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	rs := &restartableServer{t: t, broker: b, addr: addr}
	rs.start()
	t.Cleanup(rs.stop)
	return rs
}

func (rs *restartableServer) start() {
	rs.t.Helper()
	var err error
	// The just-freed port may linger briefly; retry the bind.
	for i := 0; i < 20; i++ {
		rs.srv, err = NewServer(rs.broker, rs.addr)
		if err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	rs.t.Fatalf("restart server: %v", err)
}

func (rs *restartableServer) stop() {
	if rs.srv != nil {
		_ = rs.srv.Close()
		rs.srv = nil
	}
}

func TestRetryClientSurvivesServerRestart(t *testing.T) {
	rs := newRestartableServer(t)
	rc, err := DialRetry(rs.addr, 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, _, err := rc.Produce("t", AutoPartition, nil, []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Bounce the server five times, a produce after each: every bounce
	// kills the client's connection and the retry client redials
	// transparently.
	for i := 0; i < 5; i++ {
		rs.stop()
		rs.start()
		if _, _, err := rc.Produce("t", AutoPartition, nil, []byte("after")); err != nil {
			t.Fatalf("produce after restart %d: %v", i+1, err)
		}
	}
	// Every record is there, read back through the same retry client.
	var total int
	for p := int32(0); p < 3; p++ {
		msgs, err := readCopies(rc, "t", p, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		total += len(msgs)
	}
	if total != 6 {
		t.Errorf("fetched %d messages, want 6", total)
	}
}

func TestRetryClientBrokerErrorsNotRetried(t *testing.T) {
	rs := newRestartableServer(t)
	rc, err := DialRetry(rs.addr, 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Application-level errors surface immediately with matching.
	if _, _, err := rc.Produce("missing", 0, nil, []byte("x")); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("err = %v, want ErrUnknownTopic", err)
	}
	if _, err := readCopies(rc, "t", 99, 0, 1); !errors.Is(err, ErrBadPartition) {
		t.Errorf("err = %v, want ErrBadPartition", err)
	}
}

func TestRetryClientExhaustsBudget(t *testing.T) {
	rs := newRestartableServer(t)
	rc, err := DialRetry(rs.addr, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rc.sleep = func(time.Duration) {} // no real waiting in tests
	defer rc.Close()
	rs.stop() // server never comes back

	if _, _, err := rc.Produce("t", 0, nil, []byte("x")); err == nil {
		t.Error("want error when the server stays down")
	}
}

func TestRetryClientClosed(t *testing.T) {
	rs := newRestartableServer(t)
	rc, err := DialRetry(rs.addr, 3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Produce("t", 0, nil, []byte("x")); !errors.Is(err, ErrClientClosed) {
		t.Errorf("err = %v, want ErrClientClosed", err)
	}
	if err := rc.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRetryClientBackoffIsJittered(t *testing.T) {
	rs := newRestartableServer(t)
	rc, err := DialRetryContext(context.Background(), rs.addr, RetryConfig{
		MaxAttempts: 6,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
		Jitter:      0.5,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rc2, err := DialRetryContext(context.Background(), rs.addr, RetryConfig{
		MaxAttempts: 6, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second,
		Jitter: 0.5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	var slept []time.Duration
	rc.sleep = func(d time.Duration) { slept = append(slept, d) }
	rs.stop()
	_, _, _ = rc.Produce("t", 0, nil, []byte("x"))

	if len(slept) != 5 {
		t.Fatalf("slept %d times, want 5", len(slept))
	}
	// Every sleep must deviate from the pure-doubling schedule (seed 42
	// never draws exactly 0.5) while staying within the +-50% band.
	pure := 100 * time.Millisecond
	for i, d := range slept {
		lo := time.Duration(float64(pure) * 0.5)
		hi := time.Duration(float64(pure) * 1.5)
		if d < lo || d > hi {
			t.Errorf("sleep %d = %v outside [%v, %v]", i, d, lo, hi)
		}
		if d == pure {
			t.Errorf("sleep %d = %v exactly on the synchronized schedule", i, d)
		}
		pure *= 2
		if pure > time.Second {
			pure = time.Second
		}
	}

	// Same seed, same schedule: the jitter sequence is deterministic.
	var slept2 []time.Duration
	rc2.sleep = func(d time.Duration) { slept2 = append(slept2, d) }
	_, _, _ = rc2.Produce("t", 0, nil, []byte("x"))
	if len(slept2) != len(slept) {
		t.Fatalf("second client slept %d times, want %d", len(slept2), len(slept))
	}
	for i := range slept2 {
		if slept2[i] != slept[i] {
			t.Errorf("seeded jitter not reproducible: %v vs %v", slept2[i], slept[i])
		}
	}
}

func TestRetryClientContextBoundsRetries(t *testing.T) {
	rs := newRestartableServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	rc, err := DialRetryContext(ctx, rs.addr, RetryConfig{
		MaxAttempts: 1000, // context, not the attempt budget, ends the loop
		BaseBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rs.stop()
	cancel() // total retry time bounded by the caller

	start := time.Now()
	_, _, err = rc.Produce("t", 0, nil, []byte("x"))
	if err == nil {
		t.Fatal("want error with context cancelled and server down")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled retry loop ran %v — context not respected", elapsed)
	}
}

func TestRetryClientContextCancelledSleepWakes(t *testing.T) {
	rs := newRestartableServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rc, err := DialRetryContext(ctx, rs.addr, RetryConfig{
		MaxAttempts: 50,
		BaseBackoff: 10 * time.Second, // would sleep forever without ctx
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rs.stop()

	done := make(chan error, 1)
	go func() {
		_, _, err := rc.Produce("t", 0, nil, []byte("x"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("want error after context deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored the context deadline")
	}
}

func TestRetryClientFullSurface(t *testing.T) {
	rs := newRestartableServer(t)
	rc, err := DialRetry(rs.addr, 3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.CreateTopic("u", 2); err != nil {
		t.Fatal(err)
	}
	n, err := rc.PartitionCount("u")
	if err != nil || n != 2 {
		t.Errorf("PartitionCount = %d, %v", n, err)
	}
	topics, err := rc.ListTopics()
	if err != nil || len(topics) != 2 {
		t.Errorf("ListTopics = %v, %v", topics, err)
	}
	if _, _, err := rc.Produce("u", 0, nil, []byte("v")); err != nil {
		t.Fatal(err)
	}
	recs := []BatchRecord{{Value: []byte("b0")}, {Value: []byte("b1")}}
	res := make([]BatchResult, len(recs))
	if err := rc.ProduceBatchInto("u", 1, recs, res); err != nil || res[0].Err != nil || res[1].Offset != 1 {
		t.Fatalf("ProduceBatchInto = %+v, %v", res, err)
	}
	if err := rc.ProduceBatchInto("u", 1, recs, res[:1]); err == nil {
		t.Error("ProduceBatchInto with a short res succeeded")
	}
	reads := []PartitionRead{{Partition: 1}, {Partition: 9}, {Partition: 0}}
	var lent []string
	n = rc.FetchEach("u", reads, 10, func(m Message) { lent = append(lent, string(m.Value)) })
	if n != 3 || fmt.Sprint(lent) != "[b0 b1 v]" {
		t.Errorf("FetchEach lent %d: %v", n, lent)
	}
	if !errors.Is(reads[1].Err, ErrBadPartition) || reads[0].Err != nil || reads[2].Err != nil {
		t.Errorf("FetchEach read errors: %v, %v, %v", reads[0].Err, reads[1].Err, reads[2].Err)
	}
}

// TestLentFetchLendsOnceAcrossAKilledConnection: the peer answers a
// FetchEach's second read with a frame that breaks off inside its third
// message and hangs up. The retry and pool clients repeat that read on a
// fresh connection, and every record is lent exactly once, because an
// answer is checked whole before its first message is lent.
func TestLentFetchLendsOnceAcrossAKilledConnection(t *testing.T) {
	const partitions, perPart = 3, 4
	answer := func(reads []PartitionRead, cut int) []byte {
		var sections []answerSection
		for _, r := range reads {
			s := answerSection{partition: r.Partition}
			for i := 0; i < perPart; i++ {
				value := append([]byte(fmt.Sprintf("p%d-%d", r.Partition, i)), make([]byte, 45)...)
				s.msgs = append(s.msgs, Message{Key: []byte("car-1"), Value: value})
			}
			sections = append(sections, s)
		}
		frame, _ := encodeAnswer(sections, cut)
		return frame
	}
	for _, kind := range []string{"retry", "pool"} {
		t.Run(kind, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ln.Close() })
			var killed atomic.Bool
			serve := func(conn net.Conn) {
				defer conn.Close()
				if _, err := readFrame(conn, DefaultMaxFrameSize); err != nil {
					return
				}
				if _, err := conn.Write(helloFrame(respHello, protocolVersion, DefaultMaxFrameSize, 0)); err != nil {
					return
				}
				for {
					req, err := readFrame(conn, DefaultMaxFrameSize)
					if err != nil {
						return
					}
					dec := frameDecoder(req)
					_, _, reads, err := decodeFetchRequest(&dec, nil)
					if err != nil || len(reads) != 1 {
						return
					}
					kill := reads[0].Partition == 1 && killed.CompareAndSwap(false, true)
					cut := 0
					if kill {
						cut = 100
					}
					resp := answer(reads, cut)
					copy(resp[5:5+corrSize], req[1:1+corrSize])
					if _, err := conn.Write(resp); err != nil || kill {
						return
					}
				}
			}
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go serve(conn)
				}
			}()
			var c Client
			if kind == "retry" {
				c, err = DialRetry(ln.Addr().String(), 3, time.Millisecond)
			} else {
				c, err = DialPool(ln.Addr().String(), PoolConfig{})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			reads := make([]PartitionRead, partitions)
			for p := range reads {
				reads[p].Partition = int32(p)
			}
			var lent []string
			n := c.FetchEach("t", reads, 100, func(m Message) { lent = append(lent, string(m.Value[:min(4, len(m.Value))])) })
			var want []string
			for p := 0; p < partitions; p++ {
				for i := 0; i < perPart; i++ {
					want = append(want, fmt.Sprintf("p%d-%d", p, i))
				}
			}
			if !killed.Load() || n != len(want) || fmt.Sprint(lent) != fmt.Sprint(want) {
				t.Fatalf("killed=%v: FetchEach reported %d and lent %v, want each of %v once", killed.Load(), n, lent, want)
			}
			for _, r := range reads {
				if r.Err != nil {
					t.Fatalf("partition %d: %v", r.Partition, r.Err)
				}
			}
		})
	}
}

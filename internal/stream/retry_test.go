package stream

import (
	"context"
	"errors"
	"net"
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
		msgs, err := rc.Fetch("t", p, 0, 100)
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
	if _, err := rc.Fetch("t", 99, 0, 1); !errors.Is(err, ErrBadPartition) {
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
	msgs, err := rc.Fetch("u", 0, 0, 10)
	if err != nil || len(msgs) != 1 {
		t.Errorf("Fetch = %v, %v", msgs, err)
	}
}

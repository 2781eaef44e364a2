//go:build cad3_checks

package stream

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// resetPoolGuard drains the payload ring and clears the guard table so
// each test starts from a known-empty pool (other package tests share
// the global free lists).
func resetPoolGuard() {
	for {
		select {
		case <-payloadFree:
			continue
		default:
		}
		break
	}
	guardMu.Lock()
	freeSites = map[unsafe.Pointer]string{}
	guardMu.Unlock()
}

// TestGuardPanicsOnDoubleRecycle proves the debug build turns a double
// PutPayload into an immediate panic naming both recycle call sites.
func TestGuardPanicsOnDoubleRecycle(t *testing.T) {
	resetPoolGuard()
	b := GetPayload()
	b = append(b, 1, 2, 3)
	PutPayload(b)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second PutPayload of the same buffer did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "double recycle of pooled buffer") ||
			!strings.Contains(msg, "already recycled at") ||
			!strings.Contains(msg, "pool_guard_test.go") {
			t.Errorf("panic message lacks the offending call sites: %q", msg)
		}
	}()
	PutPayload(b)
}

// TestGuardAllowsRecycleAfterLease proves the legal lifecycle stays
// silent: put, get (lease), put again.
func TestGuardAllowsRecycleAfterLease(t *testing.T) {
	resetPoolGuard()
	b := GetPayload()
	b = append(b, 42)
	PutPayload(b)
	leased := GetPayload() // the ring returns the same buffer
	PutPayload(leased)     // legal: the new owner recycles once
}

// TestGuardRetractsDroppedBuffers proves a buffer the full ring dropped
// to the GC is forgotten — recycling a fresh buffer that happens to
// reuse its storage must not trip the detector.
func TestGuardRetractsDroppedBuffers(t *testing.T) {
	resetPoolGuard()
	// Fill the ring completely, then overflow it by one.
	kept := make([][]byte, 0, cap(payloadFree)+1)
	for i := 0; i <= cap(payloadFree); i++ {
		kept = append(kept, append(GetPayload(), byte(i)))
	}
	for _, b := range kept {
		PutPayload(b) // the last one is dropped and must be retracted
	}
	guardMu.Lock()
	n := len(freeSites)
	guardMu.Unlock()
	if n != cap(payloadFree) {
		t.Errorf("guard tracks %d buffers, want exactly the ring capacity %d", n, cap(payloadFree))
	}
}

// TestReplicatedLendsPoisonToo: the replica set's clients lend through the
// same PollEach, so a callback that keeps a view of what it was lent —
// views of a replica's log, read under the set's lock — finds 0xDB in it
// afterwards, off the leader and off a committed follower read alike, and
// the logs themselves stay as they were.
func TestReplicatedLendsPoisonToo(t *testing.T) {
	rs := newReadSet(t, nil)
	want := [][]byte{[]byte("first record"), []byte("second")}
	for _, v := range want {
		if _, _, err := rs.Produce("t", 0, []byte("car-1"), v, AckAll); err != nil {
			t.Fatal(err)
		}
	}
	for name, client := range map[string]Client{"leader reads": rs.Client(AckAll), "committed reads": rs.ReadClient(AckAll)} {
		c, err := NewConsumer(client, "t", 0)
		if err != nil {
			t.Fatal(err)
		}
		var kept, copied [][]byte
		if n, err := c.PollEach(10, func(m Message) {
			kept, copied = append(kept, m.Value), append(copied, append([]byte(nil), m.Value...))
		}); err != nil || n != len(want) {
			t.Fatalf("%s: PollEach = %d, %v", name, n, err)
		}
		for i := range want {
			if !bytes.Equal(copied[i], want[i]) {
				t.Errorf("%s: message %d copied as %q, want %q", name, i, copied[i], want[i])
			}
			if !bytes.Equal(kept[i], bytes.Repeat([]byte{lentPoison}, len(want[i]))) {
				t.Errorf("%s: message %d kept a view that still reads %q: a retaining callback went unnoticed", name, i, kept[i])
			}
		}
	}
	msgs, err := rs.FetchCommitted("t", 0, 0, 10)
	if err != nil || len(msgs) != len(want) || !bytes.Equal(msgs[0].Value, want[0]) || !bytes.Equal(msgs[1].Value, want[1]) {
		t.Fatalf("the replicas' logs were disturbed: %d messages, %v", len(msgs), err)
	}
}

package stream

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cad3/internal/obsv"
)

// scriptedLink is the follower's ReplicaLink under test: it counts the
// appends the controller makes (empty ones are catch-up probes) and lets
// a case script what happens to the next one.
type scriptedLink struct {
	ReplicaLink
	appends, probes int
	next            func(deliver func() (int64, error)) (int64, error)
}

func (l *scriptedLink) ReplicaAppend(topicName string, partition int32, epoch, base int64, recs []ReplicaRecord) (int64, error) {
	l.appends++
	if len(recs) == 0 {
		l.probes++
	}
	deliver := func() (int64, error) {
		return l.ReplicaLink.ReplicaAppend(topicName, partition, epoch, base, recs)
	}
	if f := l.next; f != nil {
		l.next = nil
		return f(deliver)
	}
	return deliver()
}

// pushFixture is a two-replica set whose follower sits behind a
// scriptedLink, in process or across the v2 wire.
type pushFixture struct {
	rs               *ReplicaSet
	leader, follower *Broker
	link             *scriptedLink
	rsReg, fReg      *obsv.Registry
}

func newPushFixture(t *testing.T, wire bool) *pushFixture {
	t.Helper()
	f := &pushFixture{rsReg: obsv.NewRegistry(), fReg: obsv.NewRegistry()}
	f.leader = NewBroker(BrokerConfig{})
	f.follower = NewBroker(BrokerConfig{Metrics: f.fReg})
	var inner ReplicaLink = f.follower
	if wire {
		srv, err := NewServer(f.follower, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		inner = c
	}
	f.link = &scriptedLink{ReplicaLink: inner}
	rs, err := NewReplicaSet(ReplicaSetConfig{Metrics: f.rsReg},
		Replica{ID: "rL", Broker: f.leader},
		Replica{ID: "rF", Broker: f.follower, Link: f.link})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	f.rs = rs
	return f
}

// produce appends record i at the given ack level.
func (f *pushFixture) produce(t *testing.T, i int, acks AckLevel) {
	t.Helper()
	key := []byte(fmt.Sprintf("car-%d", i))
	val := []byte(fmt.Sprintf("obs-%d", i))
	if _, _, err := f.rs.Produce(TopicInData, 0, key, val, acks); err != nil {
		t.Fatalf("produce %d at acks=%s: %v", i, acks, err)
	}
}

// requireLogPrefix checks that the follower's log is, record for record
// (offset, key, value, append timestamp), the first wantLen records of
// the leader's.
func requireLogPrefix(t *testing.T, leader, follower *Broker, wantLen int) {
	t.Helper()
	lm, err := leader.Fetch(TopicInData, 0, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := follower.Fetch(TopicInData, 0, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm) != wantLen {
		t.Fatalf("follower holds %d records, want %d (leader holds %d)", len(fm), wantLen, len(lm))
	}
	for i := range fm {
		l, f := lm[i], fm[i]
		if l.Offset != f.Offset || !bytes.Equal(l.Key, f.Key) || !bytes.Equal(l.Value, f.Value) ||
			l.AppendedAt.UnixNano() != f.AppendedAt.UnixNano() {
			t.Fatalf("record %d differs:\n leader   %d %q %q %d\n follower %d %q %q %d", i,
				l.Offset, l.Key, l.Value, l.AppendedAt.UnixNano(),
				f.Offset, f.Key, f.Value, f.AppendedAt.UnixNano())
		}
	}
}

// TestLeaderPushAckAll drives the acks=all push path through every way a
// push can land, in process and over the v2 wire. A caught-up follower
// costs one ReplicaAppend and no read of the leader log; anything the
// follower objects to is decided by the follower (gap, overlap, fence),
// and afterwards its log matches the leader's record for record.
func TestLeaderPushAckAll(t *testing.T) {
	const warm = 3 // acks=all records both replicas hold before the case starts
	cases := []struct {
		name string
		// run drives the case and returns how many records the leader and
		// the follower must hold at the end.
		run func(t *testing.T, f *pushFixture) (leaderLen, followerLen int)
	}{
		{"caught up: one append, no leader fetch", func(t *testing.T, f *pushFixture) (int, int) {
			appends, out := f.link.appends, f.leader.BytesOut()
			f.produce(t, warm, AckAll)
			if got := f.link.appends - appends; got != 1 {
				t.Errorf("push made %d replica appends, want 1", got)
			}
			if f.link.probes != 0 {
				t.Errorf("push probed the follower %d times, want 0", f.link.probes)
			}
			if got := f.leader.BytesOut() - out; got != 0 {
				t.Errorf("push read %d bytes back from the leader log, want 0", got)
			}
			if n := f.rsReg.Counter("repl.push_fallbacks").Value(); n != 0 {
				t.Errorf("repl.push_fallbacks = %d, want 0", n)
			}
			return warm + 1, warm + 1
		}},
		{"k records behind: falls back, stays in the ISR", func(t *testing.T, f *pushFixture) (int, int) {
			const k = 4
			for i := 0; i < k; i++ {
				f.produce(t, warm+i, AckLeader) // not replicated inline
			}
			requireLogPrefix(t, f.leader, f.follower, warm)
			f.produce(t, warm+k, AckAll)
			if n := f.rsReg.Counter("repl.push_fallbacks").Value(); n != 1 {
				t.Errorf("repl.push_fallbacks = %d, want 1", n)
			}
			if f.link.probes != 1 {
				t.Errorf("fallback probed %d times, want 1", f.link.probes)
			}
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 0 {
				t.Errorf("a follower that caught up was dropped from the ISR (%d drops)", n)
			}
			// Still in the ISR: the next produce is a plain push again.
			appends := f.link.appends
			f.produce(t, warm+k+1, AckAll)
			if got := f.link.appends - appends; got != 1 {
				t.Errorf("produce after the catch-up made %d appends, want 1", got)
			}
			return warm + k + 2, warm + k + 2
		}},
		{"duplicated push: idempotent", func(t *testing.T, f *pushFixture) (int, int) {
			f.link.next = func(deliver func() (int64, error)) (int64, error) {
				if _, err := deliver(); err != nil {
					return 0, err
				}
				return deliver()
			}
			f.produce(t, warm, AckAll)
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 0 {
				t.Errorf("duplicate delivery dropped the follower (%d drops)", n)
			}
			f.produce(t, warm+1, AckAll)
			return warm + 2, warm + 2
		}},
		{"lost ack: ISR drop, Tick rejoins", func(t *testing.T, f *pushFixture) (int, int) {
			f.link.next = func(deliver func() (int64, error)) (int64, error) {
				_, _ = deliver() // the follower applied it; the ack never came back
				return 0, errors.New("link: ack lost")
			}
			f.produce(t, warm, AckAll)
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 1 {
				t.Fatalf("repl.isr_drops = %d after a lost ack, want 1", n)
			}
			// Out of the ISR: produces no longer reach it.
			appends := f.link.appends
			f.produce(t, warm+1, AckAll)
			if f.link.appends != appends {
				t.Errorf("produce pushed to a follower outside the ISR")
			}
			requireLogPrefix(t, f.leader, f.follower, warm+1)
			f.rs.Tick()
			requireLogPrefix(t, f.leader, f.follower, warm+2)
			appends = f.link.appends
			f.produce(t, warm+2, AckAll)
			if got := f.link.appends - appends; got != 1 {
				t.Errorf("produce after the rejoin made %d appends, want 1", got)
			}
			return warm + 3, warm + 3
		}},
		{"lost in transit: ISR drop, Tick rejoins", func(t *testing.T, f *pushFixture) (int, int) {
			f.link.next = func(func() (int64, error)) (int64, error) {
				return 0, errors.New("link: append lost")
			}
			f.produce(t, warm, AckAll)
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 1 {
				t.Fatalf("repl.isr_drops = %d after a lost append, want 1", n)
			}
			requireLogPrefix(t, f.leader, f.follower, warm)
			f.rs.Tick()
			return warm + 1, warm + 1
		}},
		{"stale epoch: fenced and counted", func(t *testing.T, f *pushFixture) (int, int) {
			// The follower has heard from a newer leadership than the
			// controller pushing to it.
			if err := f.follower.SetPartitionRole(TopicInData, 0, true, 7, "r-new"); err != nil {
				t.Fatal(err)
			}
			f.produce(t, warm, AckAll)
			if n := f.fReg.Counter("repl.fenced").Value(); n != 1 {
				t.Errorf("repl.fenced = %d, want 1 (the pushed record)", n)
			}
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 1 {
				t.Errorf("repl.isr_drops = %d, want 1", n)
			}
			if n := f.rsReg.Counter("repl.push_fallbacks").Value(); n != 0 {
				t.Errorf("a fenced push fell back to catch-up (%d fallbacks)", n)
			}
			// Tick's catch-up is fenced the same way: the log stays put.
			f.rs.Tick()
			return warm + 1, warm
		}},
	}
	for _, wire := range []bool{false, true} {
		transport := "inproc"
		if wire {
			transport = "wire-v2"
		}
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				f := newPushFixture(t, wire)
				for i := 0; i < warm; i++ {
					f.produce(t, i, AckAll)
				}
				requireLogPrefix(t, f.leader, f.follower, warm)
				f.link.appends, f.link.probes = 0, 0
				leaderLen, followerLen := tc.run(t, f)
				if hwm, err := f.leader.HighWaterMark(TopicInData, 0); err != nil || hwm != int64(leaderLen) {
					t.Fatalf("leader HWM = %d, %v, want %d", hwm, err, leaderLen)
				}
				requireLogPrefix(t, f.leader, f.follower, followerLen)
			})
		}
	}
}

// TestLeaderPushCarriesTraceStamp: the follower must receive the record
// as the leader's log holds it — the arrive stamp the leader wrote into
// its own copy included — not the bytes the producer handed in.
func TestLeaderPushCarriesTraceStamp(t *testing.T) {
	f := newPushFixture(t, false)
	// A record-frame-sized payload carrying an unstamped trace context.
	payload := make([]byte, obsv.RecordFrameSize)
	obsv.PutTrace(payload[obsv.RecordTraceOffset:], obsv.TraceContext{})
	sent := append([]byte(nil), payload...)
	if _, _, err := f.rs.Produce(TopicInData, 0, []byte("car-1"), payload, AckAll); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, sent) {
		t.Fatal("produce wrote into the producer's buffer")
	}
	requireLogPrefix(t, f.leader, f.follower, 1)
	fm, err := f.follower.Fetch(TopicInData, 0, 0, 1)
	if err != nil || len(fm) != 1 {
		t.Fatalf("follower fetch: %d records, %v", len(fm), err)
	}
	if bytes.Equal(fm[0].Value, sent) {
		t.Fatal("follower holds the unstamped producer bytes, not the leader's stamped copy")
	}
}

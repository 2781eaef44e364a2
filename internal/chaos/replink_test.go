package chaos

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cad3/internal/obsv"
	"cad3/internal/stream"
)

func replinkFixture(t *testing.T, cfg Config) (*stream.Broker, *ReplicaLink) {
	t.Helper()
	b := stream.NewBroker(stream.BrokerConfig{})
	if err := b.CreateTopic(stream.TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	return b, NewReplicaLink(NewInjector(cfg), "leader", "follower", b)
}

func someRecords(n int) []stream.ReplicaRecord {
	recs := make([]stream.ReplicaRecord, n)
	for i := range recs {
		recs[i] = stream.ReplicaRecord{Key: []byte{byte(i)}, Value: []byte("v"), AppendedAtNs: int64(i + 1)}
	}
	return recs
}

// TestReplicaLinkPartitionBlocksReplication: a partitioned link fails
// every replication operation with ErrLinkDown (the controller's cue to
// drop the follower from the ISR) and heals cleanly.
func TestReplicaLinkPartitionBlocksReplication(t *testing.T) {
	b, link := replinkFixture(t, Config{Seed: 1})
	link.Injector().Partition("leader", "follower")

	if _, err := link.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(2)); !errors.Is(err, ErrLinkDown) {
		t.Errorf("append err = %v, want ErrLinkDown", err)
	}
	if err := link.SetPartitionRole(stream.TopicInData, 0, true, 1, "leader"); !errors.Is(err, ErrLinkDown) {
		t.Errorf("role push err = %v, want ErrLinkDown", err)
	}
	if hwm, _ := b.HighWaterMark(stream.TopicInData, 0); hwm != 0 {
		t.Errorf("follower HWM = %d behind a partitioned link, want 0", hwm)
	}

	link.Injector().Heal("leader", "follower")
	if hwm, err := link.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(2)); err != nil || hwm != 2 {
		t.Errorf("append after heal = %d, %v, want 2", hwm, err)
	}
}

// TestReplicaLinkDropIsALostAck: a dropped append never reaches the
// follower, and the leader sees ErrConnKilled — on a real wire a lost
// ack and a dead connection are the same observation.
func TestReplicaLinkDropIsALostAck(t *testing.T) {
	b, link := replinkFixture(t, Config{Seed: 1, DropProb: 1})
	_, err := link.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(3))
	if !errors.Is(err, ErrConnKilled) {
		t.Errorf("dropped append err = %v, want ErrConnKilled", err)
	}
	if hwm, _ := b.HighWaterMark(stream.TopicInData, 0); hwm != 0 {
		t.Errorf("follower HWM = %d after a dropped append, want 0", hwm)
	}
	if got := link.Injector().Stats().Drops; got != 1 {
		t.Errorf("injector counted %d drops, want 1", got)
	}
}

// TestReplicaLinkDupExercisesIdempotency: a duplicated append applies
// the batch twice; the follower's overlap skip must absorb the replay,
// leaving the high watermark exactly one batch ahead.
func TestReplicaLinkDupExercisesIdempotency(t *testing.T) {
	b, link := replinkFixture(t, Config{Seed: 1, DupProb: 1})
	hwm, err := link.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 4 {
		t.Errorf("duplicated append HWM = %d, want 4 (overlap not skipped)", hwm)
	}
	if got, _ := b.HighWaterMark(stream.TopicInData, 0); got != 4 {
		t.Errorf("follower HWM = %d, want 4", got)
	}
	msgs, err := b.Fetch(stream.TopicInData, 0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.RecycleMessages(msgs)
	if len(msgs) != 4 {
		t.Errorf("follower log holds %d records, want 4", len(msgs))
	}
}

// TestReplicaLinkKillAndDelay: kills surface as ErrConnKilled; delays
// demand an injected Sleep (a silent wall-clock sleep would re-couple a
// deterministic study to the host scheduler).
func TestReplicaLinkKillAndDelay(t *testing.T) {
	_, killed := replinkFixture(t, Config{Seed: 1, KillProb: 1})
	if _, err := killed.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(1)); !errors.Is(err, ErrConnKilled) {
		t.Errorf("killed append err = %v, want ErrConnKilled", err)
	}
	if err := killed.SetPartitionRole(stream.TopicInData, 0, true, 1, "leader"); !errors.Is(err, ErrConnKilled) {
		t.Errorf("killed role push err = %v, want ErrConnKilled", err)
	}

	b, delayed := replinkFixture(t, Config{Seed: 1, DelayProb: 1, MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("delay with nil Sleep did not panic")
			}
		}()
		_, _ = delayed.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(1))
	}()
	var slept time.Duration
	delayed.Sleep = func(d time.Duration) { slept += d }
	if hwm, err := delayed.ReplicaAppend(stream.TopicInData, 0, 0, 0, someRecords(1)); err != nil || hwm != 1 {
		t.Fatalf("delayed append = %d, %v, want 1", hwm, err)
	}
	if slept != time.Millisecond {
		t.Errorf("virtual sleep = %v, want 1ms", slept)
	}
	if hwm, _ := b.HighWaterMark(stream.TopicInData, 0); hwm != 1 {
		t.Errorf("follower HWM = %d, want 1", hwm)
	}
}

// TestReplicaLinkFlakyISRDropAndRejoin is the end-to-end tie-in: a
// ReplicaSet whose follower link is partitioned drops the follower from
// the ISR (acks=all produces still succeed on the shrunken ISR), and a
// heal plus one Tick brings it back in sync.
func TestReplicaLinkFlakyISRDropAndRejoin(t *testing.T) {
	inj := NewInjector(Config{Seed: 9})
	leaderB := stream.NewBroker(stream.BrokerConfig{})
	followerB := stream.NewBroker(stream.BrokerConfig{})
	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{},
		stream.Replica{ID: "rL", Broker: leaderB},
		stream.Replica{ID: "rF", Broker: followerB, Link: NewReplicaLink(inj, "rL", "rF", followerB)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic(stream.TopicInData, 1); err != nil {
		t.Fatal(err)
	}

	inj.Partition("rL", "rF")
	for i := 0; i < 5; i++ {
		if _, _, err := rs.Produce(stream.TopicInData, 0, nil, []byte("v"), stream.AckAll); err != nil {
			t.Fatalf("acks=all produce with a cut replica link: %v", err)
		}
	}
	if hwm, _ := followerB.HighWaterMark(stream.TopicInData, 0); hwm != 0 {
		t.Fatalf("follower HWM = %d across a cut link, want 0", hwm)
	}

	inj.Heal("rL", "rF")
	rs.Tick()
	if hwm, _ := followerB.HighWaterMark(stream.TopicInData, 0); hwm != 5 {
		t.Errorf("follower HWM = %d after heal+tick, want 5", hwm)
	}
	// Back in the ISR: the next acks=all produce replicates inline again.
	if _, _, err := rs.Produce(stream.TopicInData, 0, nil, []byte("v"), stream.AckAll); err != nil {
		t.Fatal(err)
	}
	if hwm, _ := followerB.HighWaterMark(stream.TopicInData, 0); hwm != 6 {
		t.Errorf("follower HWM = %d after rejoin, want 6 (not back in the ISR)", hwm)
	}
}

// sameLog checks that the follower holds exactly the first n records of
// the leader's log: same offset, key, value and append timestamp.
func sameLog(t *testing.T, leader, follower *stream.Broker, n int) {
	t.Helper()
	lm, err := leader.Fetch(stream.TopicInData, 0, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := follower.Fetch(stream.TopicInData, 0, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm) != n || len(lm) < n {
		t.Fatalf("follower holds %d records and the leader %d, want %d on the follower", len(fm), len(lm), n)
	}
	for i := range fm {
		l, f := lm[i], fm[i]
		if l.Offset != f.Offset || !bytes.Equal(l.Key, f.Key) || !bytes.Equal(l.Value, f.Value) ||
			l.AppendedAt.UnixNano() != f.AppendedAt.UnixNano() {
			t.Fatalf("record %d: leader %d %q %q, follower %d %q %q", i,
				l.Offset, l.Key, l.Value, f.Offset, f.Key, f.Value)
		}
	}
}

// TestReplicaLinkLeaderPush runs the acks=all push path (one
// ReplicaAppend of the record just produced, catch-up only on an offset
// gap) through an injected link: every fault the injector can draw on a
// push either leaves the follower's log identical to the leader's or
// costs it its ISR seat until a Tick re-syncs it.
func TestReplicaLinkLeaderPush(t *testing.T) {
	const warm = 3
	type fixture struct {
		inj              *Injector
		rs               *stream.ReplicaSet
		leader, follower *stream.Broker
		rsReg, fReg      *obsv.Registry
	}
	produce := func(t *testing.T, f *fixture, acks stream.AckLevel) {
		t.Helper()
		if _, _, err := f.rs.Produce(stream.TopicInData, 0, []byte("car-1"), []byte("obs"), acks); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// run returns the follower's expected log length; the leader's is
		// always one more than whatever run produced on top of warm.
		run func(t *testing.T, f *fixture) (followerLen int)
	}{
		{"caught up: one link operation", func(t *testing.T, f *fixture) int {
			ops := f.inj.Stats().Operations
			produce(t, f, stream.AckAll)
			if got := f.inj.Stats().Operations - ops; got != 1 {
				t.Errorf("push cost %d link operations, want 1", got)
			}
			return warm + 1
		}},
		{"behind: falls back to catch-up", func(t *testing.T, f *fixture) int {
			produce(t, f, stream.AckLeader)
			produce(t, f, stream.AckLeader)
			produce(t, f, stream.AckAll)
			if n := f.rsReg.Counter("repl.push_fallbacks").Value(); n != 1 {
				t.Errorf("repl.push_fallbacks = %d, want 1", n)
			}
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 0 {
				t.Errorf("repl.isr_drops = %d, want 0", n)
			}
			return warm + 3
		}},
		{"dup: idempotent", func(t *testing.T, f *fixture) int {
			f.inj.SetConfig(Config{Seed: 1, DupProb: 1})
			produce(t, f, stream.AckAll)
			if got := f.inj.Stats().Dups; got != 1 {
				t.Errorf("injector counted %d dups, want 1", got)
			}
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 0 {
				t.Errorf("a duplicated push dropped the follower (%d drops)", n)
			}
			return warm + 1
		}},
		{"drop: lost ack, ISR drop, Tick rejoins", func(t *testing.T, f *fixture) int {
			f.inj.SetConfig(Config{Seed: 1, DropProb: 1})
			produce(t, f, stream.AckAll)
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 1 {
				t.Fatalf("repl.isr_drops = %d after a dropped push, want 1", n)
			}
			sameLog(t, f.leader, f.follower, warm)
			f.inj.SetConfig(Config{Seed: 1})
			f.rs.Tick()
			sameLog(t, f.leader, f.follower, warm+1)
			ops := f.inj.Stats().Operations
			produce(t, f, stream.AckAll)
			if got := f.inj.Stats().Operations - ops; got != 1 {
				t.Errorf("produce after the rejoin cost %d link operations, want 1", got)
			}
			return warm + 2
		}},
		{"stale epoch: fenced", func(t *testing.T, f *fixture) int {
			if err := f.follower.SetPartitionRole(stream.TopicInData, 0, true, 7, "r-new"); err != nil {
				t.Fatal(err)
			}
			produce(t, f, stream.AckAll)
			if n := f.fReg.Counter("repl.fenced").Value(); n != 1 {
				t.Errorf("repl.fenced = %d, want 1", n)
			}
			if n := f.rsReg.Counter("repl.isr_drops").Value(); n != 1 {
				t.Errorf("repl.isr_drops = %d, want 1", n)
			}
			return warm
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fixture{inj: NewInjector(Config{Seed: 1}), rsReg: obsv.NewRegistry(), fReg: obsv.NewRegistry()}
			f.leader = stream.NewBroker(stream.BrokerConfig{})
			f.follower = stream.NewBroker(stream.BrokerConfig{Metrics: f.fReg})
			rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{Metrics: f.rsReg},
				stream.Replica{ID: "rL", Broker: f.leader},
				stream.Replica{ID: "rF", Broker: f.follower, Link: NewReplicaLink(f.inj, "rL", "rF", f.follower)})
			if err != nil {
				t.Fatal(err)
			}
			f.rs = rs
			if err := rs.CreateTopic(stream.TopicInData, 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				produce(t, f, stream.AckAll)
			}
			sameLog(t, f.leader, f.follower, warm)
			sameLog(t, f.leader, f.follower, tc.run(t, f))
		})
	}
}

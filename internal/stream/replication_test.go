package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cad3/internal/obsv"
)

// fetchReplicaRecords reads a broker's full partition log as the
// ReplicaRecord batch a (deposed) leader would ship — the shape of a
// buffered v2 replication frame.
func fetchReplicaRecords(t *testing.T, b *Broker, topic string, part int32) []ReplicaRecord {
	t.Helper()
	msgs, err := b.Fetch(topic, part, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]ReplicaRecord, len(msgs))
	for i := range msgs {
		recs[i] = ReplicaRecord{
			Key:          append([]byte(nil), msgs[i].Key...),
			Value:        append([]byte(nil), msgs[i].Value...),
			AppendedAtNs: msgs[i].AppendedAt.UnixNano(),
		}
	}
	RecycleMessages(msgs)
	return recs
}

// TestEpochFencingDeposedLeaderReplay is the table-driven fencing drill:
// at every ack level, a leader is deposed by an election and then
// replays the replication batch it had buffered before dying. Every
// record of the replay must be rejected with ErrFencedEpoch and the new
// leader's log must not move — otherwise a zombie leader could fork the
// log after a failover.
func TestEpochFencingDeposedLeaderReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		acks AckLevel
	}{
		{"acks=0", AckNone},
		{"acks=1", AckLeader},
		{"acks=all", AckAll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bA := NewBroker(BrokerConfig{})
			bB := NewBroker(BrokerConfig{})
			rs, err := NewReplicaSet(ReplicaSetConfig{},
				Replica{ID: "rA", Broker: bA},
				Replica{ID: "rB", Broker: bB})
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.CreateTopic(TopicInData, 1); err != nil {
				t.Fatal(err)
			}
			const n = 5
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("car-%d", i))
				if _, _, err := rs.Produce(TopicInData, 0, k, []byte("obs"), tc.acks); err != nil {
					t.Fatalf("produce %d at %s: %v", i, tc.acks, err)
				}
			}
			// Sync the follower (acks=0/1 do not replicate inline), then
			// capture the batch the leader would have in flight.
			rs.Tick()
			replay := fetchReplicaRecords(t, bA, TopicInData, 0)
			if len(replay) != n {
				t.Fatalf("leader holds %d records, want %d", len(replay), n)
			}

			// Depose: kill rA, elect rB at a bumped epoch.
			if err := rs.Kill("rA"); err != nil {
				t.Fatal(err)
			}
			rs.Tick()
			leader, epoch, ok := rs.Leader(TopicInData, 0)
			if leader != "rB" || !ok {
				t.Fatalf("leader after election = %q (alive=%v), want rB", leader, ok)
			}
			if epoch != 1 {
				t.Fatalf("epoch after election = %d, want 1", epoch)
			}
			before, err := bB.HighWaterMark(TopicInData, 0)
			if err != nil {
				t.Fatal(err)
			}
			if before != n {
				t.Fatalf("new leader HWM = %d, want %d", before, n)
			}

			// The deposed leader replays its buffered batch at its old epoch
			// (0): whole-batch and per-record replays are both fenced.
			if _, err := bB.ReplicaAppend(TopicInData, 0, 0, 0, replay); !errors.Is(err, ErrFencedEpoch) {
				t.Errorf("batch replay err = %v, want ErrFencedEpoch", err)
			}
			for i := range replay {
				_, err := bB.ReplicaAppend(TopicInData, 0, 0, int64(i), replay[i:i+1])
				if !errors.Is(err, ErrFencedEpoch) {
					t.Errorf("record %d replay err = %v, want ErrFencedEpoch", i, err)
				}
			}
			// A stale role push from the deposed controller view is fenced
			// the same way.
			if err := bB.SetPartitionRole(TopicInData, 0, true, 0, "rA"); !errors.Is(err, ErrFencedEpoch) {
				t.Errorf("stale role push err = %v, want ErrFencedEpoch", err)
			}

			after, err := bB.HighWaterMark(TopicInData, 0)
			if err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Errorf("replay moved the new leader's HWM: %d -> %d", before, after)
			}
		})
	}
}

// TestEpochFencingOverWire replays a deposed leader's batch through the
// TCP control plane: the fencing error must survive the wire as
// ErrFencedEpoch (so remote controllers stop retrying instead of
// treating it as a transport failure).
func TestEpochFencingOverWire(t *testing.T) {
	b, s := startServer(t)
	if err := b.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	// The follower has already heard from the epoch-2 leader.
	if err := b.SetPartitionRole(TopicInData, 0, true, 2, "r-new"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recs := []ReplicaRecord{{Key: []byte("k"), Value: []byte("v"), AppendedAtNs: 1}}
	if _, err := c.ReplicaAppend(TopicInData, 0, 1, 0, recs); !errors.Is(err, ErrFencedEpoch) {
		t.Errorf("wire replay err = %v, want ErrFencedEpoch", err)
	}
	if err := c.SetPartitionRole(TopicInData, 0, false, 1, ""); !errors.Is(err, ErrFencedEpoch) {
		t.Errorf("wire role push err = %v, want ErrFencedEpoch", err)
	}
	hwm, err := b.HighWaterMark(TopicInData, 0)
	if err != nil || hwm != 0 {
		t.Errorf("follower HWM = %d, %v after fenced replay, want 0", hwm, err)
	}
	// The current epoch is accepted: the fence is on staleness, not on
	// replication itself.
	if hwm, err := c.ReplicaAppend(TopicInData, 0, 2, 0, recs); err != nil || hwm != 1 {
		t.Errorf("current-epoch append = %d, %v, want 1", hwm, err)
	}
}

// TestReplicaSetKillElectReviveZeroLoss walks the full failover arc
// in-process: acked-at-all records survive a zero-warning leader kill,
// the election promotes a caught-up ISR member, and the revived replica
// rebuilds from a peer snapshot and rejoins every ISR.
func TestReplicaSetKillElectReviveZeroLoss(t *testing.T) {
	reg := obsv.NewRegistry()
	mk := func() *Broker { return NewBroker(BrokerConfig{}) }
	rs, err := NewReplicaSet(ReplicaSetConfig{Metrics: reg},
		Replica{ID: "r0", Broker: mk()},
		Replica{ID: "r1", Broker: mk()},
		Replica{ID: "r2", Broker: mk()})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 2
	if err := rs.CreateTopic(TopicInData, parts); err != nil {
		t.Fatal(err)
	}

	// Acked ledger: everything produced at acks=all, keyed for stable
	// partition affinity.
	type acked struct {
		part int32
		off  int64
		key  string
	}
	var ledger []acked
	produce := func(i int) error {
		k := fmt.Sprintf("car-%d", i)
		part, off, err := rs.Produce(TopicInData, AutoPartition, []byte(k), []byte("obs"), AckAll)
		if err != nil {
			return err
		}
		ledger = append(ledger, acked{part, off, k})
		return nil
	}
	for i := 0; i < 20; i++ {
		if err := produce(i); err != nil {
			t.Fatal(err)
		}
	}

	// Kill partition 0's leader with zero warning.
	victim, epoch0, ok := rs.Leader(TopicInData, 0)
	if !ok || victim != "r0" {
		t.Fatalf("initial leader = %q (alive=%v), want r0", victim, ok)
	}
	if err := rs.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// The leaderless window refuses produces with ErrNotLeader.
	if _, _, err := rs.Produce(TopicInData, 0, []byte("x"), []byte("y"), AckAll); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("leaderless produce err = %v, want ErrNotLeader", err)
	}
	if _, err := rs.Fetch(TopicInData, 0, 0, 1); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("leaderless fetch err = %v, want ErrNotLeader", err)
	}

	// Election: a caught-up ISR member takes over at a bumped epoch.
	rs.Tick()
	leader, epoch1, ok := rs.Leader(TopicInData, 0)
	if !ok || leader == victim {
		t.Fatalf("post-election leader = %q (alive=%v)", leader, ok)
	}
	if epoch1 <= epoch0 {
		t.Errorf("epoch did not advance: %d -> %d", epoch0, epoch1)
	}
	// Service resumes, still at acks=all, with one replica down.
	for i := 20; i < 30; i++ {
		if err := produce(i); err != nil {
			t.Fatal(err)
		}
	}

	// Revive the victim and let a Tick sync it back into the ISR.
	if _, err := rs.Revive(victim); err != nil {
		t.Fatal(err)
	}
	rs.Tick()

	// Zero acked loss: every ledger entry is still readable at its acked
	// (partition, offset) with its original key.
	for p := int32(0); p < parts; p++ {
		msgs, err := rs.Fetch(TopicInData, p, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]string, len(msgs))
		for i := range msgs {
			got[msgs[i].Offset] = string(msgs[i].Key)
		}
		RecycleMessages(msgs)
		for _, a := range ledger {
			if a.part != p {
				continue
			}
			if got[a.off] != a.key {
				t.Errorf("acked record %q lost: partition %d offset %d holds %q", a.key, p, a.off, got[a.off])
			}
		}
	}

	// The revived replica holds the full log (it may even lead partitions
	// it still owned), and the cluster is back at full ISR strength.
	rb, alive, err := rs.BrokerFor(victim)
	if err != nil || !alive {
		t.Fatalf("BrokerFor(%q) = alive=%v, %v", victim, alive, err)
	}
	for p := int32(0); p < parts; p++ {
		lid, _, _ := rs.Leader(TopicInData, p)
		lb, _, err := rs.BrokerFor(lid)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lb.HighWaterMark(TopicInData, p)
		got, _ := rb.HighWaterMark(TopicInData, p)
		if got != want {
			t.Errorf("revived replica HWM on partition %d = %d, want %d", p, got, want)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["election.count"] == 0 {
		t.Error("election.count = 0, want > 0")
	}
	if got := snap.Gauges["repl.isr_size"]; got != 3 {
		t.Errorf("repl.isr_size = %d after revive+tick, want 3", got)
	}
	if snap.Gauges["election.epoch"] == 0 {
		t.Error("election.epoch gauge = 0, want > 0")
	}
}

// TestReplicaSetStaysLeaderlessWithoutCandidate: elections are clean
// only. When every other ISR member is gone, the partition must stay
// leaderless (produces keep failing) rather than promote a replica that
// may miss acked records.
func TestReplicaSetStaysLeaderlessWithoutCandidate(t *testing.T) {
	rs, err := NewReplicaSet(ReplicaSetConfig{},
		Replica{ID: "r0", Broker: NewBroker(BrokerConfig{})},
		Replica{ID: "r1", Broker: NewBroker(BrokerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic(TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	if err := rs.Kill("r1"); err != nil { // the only follower
		t.Fatal(err)
	}
	rs.Tick()
	if err := rs.Kill("r0"); err != nil { // now the leader
		t.Fatal(err)
	}
	rs.Tick()
	if _, _, ok := rs.Leader(TopicInData, 0); ok {
		t.Error("partition found a live leader with an empty ISR")
	}
	if _, _, err := rs.Produce(TopicInData, 0, nil, []byte("v"), AckAll); !errors.Is(err, ErrNotLeader) {
		t.Errorf("produce err = %v, want ErrNotLeader", err)
	}
}

// TestRetryClientFollowsLeaderHint drives the producer-side failover
// path over the wire: a follower refuses a produce with ErrNotLeader
// naming the leader's address, and the RetryClient waits out the
// retry-after hint (jittered), redials the hinted address, and lands
// the record on the leader.
func TestRetryClientFollowsLeaderHint(t *testing.T) {
	follower, fsrv := startServer(t)
	leader, lsrv := startServer(t)
	for _, b := range []*Broker{follower, leader} {
		if err := b.CreateTopic(TopicInData, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.SetPartitionRole(TopicInData, 0, true, 3, lsrv.Addr()); err != nil {
		t.Fatal(err)
	}

	rc, err := DialRetryContext(context.Background(), fsrv.Addr(), RetryConfig{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		Jitter:      1e-9, // effectively none: assert the hint exactly
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var slept []time.Duration
	rc.sleep = func(d time.Duration) { slept = append(slept, d) }

	part, off, err := rc.Produce(TopicInData, 0, []byte("car-9"), []byte("obs"))
	if err != nil {
		t.Fatalf("produce through failover: %v", err)
	}
	if part != 0 || off != 0 {
		t.Errorf("produce landed at %d/%d, want 0/0", part, off)
	}
	if hwm, _ := leader.HighWaterMark(TopicInData, 0); hwm != 1 {
		t.Errorf("leader HWM = %d, want 1 (record did not follow the hint)", hwm)
	}
	if hwm, _ := follower.HighWaterMark(TopicInData, 0); hwm != 0 {
		t.Errorf("follower HWM = %d, want 0 (record produced on the follower)", hwm)
	}
	if got := rc.Addr(); got != lsrv.Addr() {
		t.Errorf("client address = %q, want the hinted leader %q", got, lsrv.Addr())
	}
	// One backoff, equal to the refusal's retry-after hint (the election
	// settle estimate), not the exponential schedule.
	if len(slept) != 1 {
		t.Fatalf("slept %d times (%v), want 1", len(slept), slept)
	}
	lo := time.Duration(float64(DefaultLeaderRetryHint) * 0.99)
	hi := time.Duration(float64(DefaultLeaderRetryHint) * 1.01)
	if slept[0] < lo || slept[0] > hi {
		t.Errorf("backoff = %v, want ~%v (the retry-after hint)", slept[0], DefaultLeaderRetryHint)
	}
}

// TestConsumerSetOffsetsPollIntoRace is the -race regression for the
// checkpoint-restore path: SetOffsets and PollInto serialize behind one
// mutex, so concurrent restores and polls must neither race nor let a
// poll observe a half-restored offset vector (offsets only ever move
// to 0 or forward from 0 here, so any fetch from a negative or absurd
// offset would error).
func TestConsumerSetOffsetsPollIntoRace(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)
	for i := 0; i < 90; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if _, _, err := client.Produce(TopicInData, AutoPartition, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewConsumer(client, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		restore := make([]int64, DefaultPartitions)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.SetOffsets(restore); err != nil {
				t.Error(err)
				return
			}
			_ = c.Offsets()
		}
	}()

	buf := make([]Message, 0, 32)
	for i := 0; i < 300; i++ {
		buf = buf[:0]
		buf, err = c.PollInto(buf, 16)
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			if buf[j].Offset < 0 {
				t.Fatalf("polled offset %d", buf[j].Offset)
			}
		}
		RecycleMessages(buf)
	}
	close(stop)
	wg.Wait()

	if err := c.SetOffsets(make([]int64, DefaultPartitions+1)); err == nil {
		t.Error("want error for offset vector of the wrong width")
	}
}

package stream

import (
	"testing"

	"cad3/internal/obsv"
)

// newReadSet builds a 3-replica in-proc set with one single-partition
// topic.
func newReadSet(t *testing.T, reg *obsv.Registry) *ReplicaSet {
	t.Helper()
	rs, err := NewReplicaSet(ReplicaSetConfig{Metrics: reg},
		Replica{ID: "r0", Broker: NewBroker(BrokerConfig{})},
		Replica{ID: "r1", Broker: NewBroker(BrokerConfig{})},
		Replica{ID: "r2", Broker: NewBroker(BrokerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestFollowerFetchNeverPassesHWM is the satellite's headline assertion:
// with the leader ahead of its followers (AckLeader produces, not yet
// replicated), a follower read returns only committed records — never
// one past the minimum high watermark of the live ISR.
func TestFollowerFetchNeverPassesHWM(t *testing.T) {
	reg := obsv.NewRegistry()
	rs := newReadSet(t, reg)

	// Five committed records: AckAll lands them on every ISR member.
	for i := 0; i < 5; i++ {
		if _, _, err := rs.Produce("t", 0, nil, []byte{byte(i)}, AckAll); err != nil {
			t.Fatal(err)
		}
	}
	// Three uncommitted records: AckLeader leaves the followers behind.
	for i := 5; i < 8; i++ {
		if _, _, err := rs.Produce("t", 0, nil, []byte{byte(i)}, AckLeader); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := rs.CommittedOffset("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if committed != 5 {
		t.Fatalf("committed offset = %d, want 5", committed)
	}

	msgs, err := rs.FetchCommitted("t", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 5 {
		t.Fatalf("follower fetch returned %d records, want the 5 committed", len(msgs))
	}
	for _, m := range msgs {
		if m.Offset >= committed {
			t.Fatalf("follower fetch returned offset %d past committed %d", m.Offset, committed)
		}
	}
	RecycleMessages(msgs)

	// Reading at the committed boundary yields nothing, not the leader's
	// uncommitted suffix.
	if msgs, err := rs.FetchCommitted("t", 0, committed, 100); err != nil || len(msgs) != 0 {
		t.Fatalf("read at committed boundary = %d msgs, err %v; want empty", len(msgs), err)
	}

	// A control-plane round replicates the suffix; the records appear.
	rs.Tick()
	msgs, err = rs.FetchCommitted("t", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 8 {
		t.Fatalf("after Tick follower fetch returned %d records, want 8", len(msgs))
	}
	RecycleMessages(msgs)

	snap := reg.Snapshot()
	if snap.Counters["repl.follower_fetches"] == 0 {
		t.Fatal("no fetch was served by a follower")
	}
	if snap.Counters["repl.follower_clamped"] == 0 {
		t.Fatal("the over-HWM read was not clamped")
	}
}

// TestFollowerFetchSpreadsAcrossISR pins the load-spreading behaviour:
// with two in-sync followers, successive fetches alternate between them
// and none is served by the leader.
func TestFollowerFetchSpreadsAcrossISR(t *testing.T) {
	reg := obsv.NewRegistry()
	rs := newReadSet(t, reg)
	if _, _, err := rs.Produce("t", 0, nil, []byte("x"), AckAll); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		msgs, err := rs.FetchCommitted("t", 0, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		RecycleMessages(msgs)
	}
	if got := reg.Snapshot().Counters["repl.follower_fetches"]; got != 6 {
		t.Fatalf("repl.follower_fetches = %d, want 6 (every read off-leader)", got)
	}
}

// TestFollowerFetchSurvivesFollowerLoss: killing a follower shrinks the
// ISR; committed reads keep working off the survivors, and an ISR of
// one serves from the leader.
func TestFollowerFetchSurvivesFollowerLoss(t *testing.T) {
	rs := newReadSet(t, nil)
	leaderID, _, _ := rs.Leader("t", 0)
	for _, id := range []string{"r0", "r1", "r2"} {
		if id == leaderID {
			continue
		}
		if err := rs.Kill(id); err != nil {
			t.Fatal(err)
		}
	}
	rs.Tick() // drops the dead followers from the ISR
	if _, _, err := rs.Produce("t", 0, nil, []byte("x"), AckAll); err != nil {
		t.Fatal(err)
	}
	msgs, err := rs.FetchCommitted("t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("leader-only ISR read returned %d records, want 1", len(msgs))
	}
	RecycleMessages(msgs)
}

// TestReadClientWithConsumer wires a consumer against the follower-read
// client view: committed records flow, uncommitted ones hold back until
// replication catches up.
func TestReadClientWithConsumer(t *testing.T) {
	rs := newReadSet(t, nil)
	cons, err := NewConsumer(rs.ReadClient(AckLeader), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.Produce("t", 0, nil, []byte("committed"), AckAll); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.Produce("t", 0, nil, []byte("pending"), AckLeader); err != nil {
		t.Fatal(err)
	}
	msgs, err := cons.Poll(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Value) != "committed" {
		t.Fatalf("poll = %d msgs, want just the committed record", len(msgs))
	}
	RecycleMessages(msgs)
	rs.Tick()
	msgs, err = cons.Poll(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Value) != "pending" {
		t.Fatalf("post-Tick poll = %d msgs, want the replicated record", len(msgs))
	}
	RecycleMessages(msgs)
}

// readerOf runs one FetchCommitted and names the replica that served it,
// read off the brokers' fetched-byte counters.
func readerOf(t *testing.T, rs *ReplicaSet, partition int32) string {
	t.Helper()
	ids := []string{"r0", "r1", "r2"}
	before := make([]int64, len(ids))
	brokers := make([]*Broker, len(ids))
	for i, id := range ids {
		b, _, err := rs.BrokerFor(id)
		if err != nil {
			t.Fatal(err)
		}
		brokers[i], before[i] = b, b.BytesOut()
	}
	msgs, err := rs.FetchCommitted("t", partition, 0, 1)
	if err != nil {
		return "err"
	}
	if len(msgs) == 0 {
		return "none"
	}
	RecycleMessages(msgs)
	for i, b := range brokers {
		if b.BytesOut() != before[i] {
			return ids[i]
		}
	}
	t.Fatal("a fetch returned records but no broker served it")
	return ""
}

// TestFollowerReadOrderOverKillRevive pins the follower-read rotation:
// for a given ISR history the sequence of serving replicas is exactly
// what the slice-building picker before it produced (the want columns
// were captured from that implementation), and picking allocates nothing.
func TestFollowerReadOrderOverKillRevive(t *testing.T) {
	steps := []struct {
		op   string // "read0"/"read1" (partition), "kill", "revive", "tick"
		id   string
		want string
	}{
		{op: "read0", want: "r2"}, {op: "read0", want: "r1"}, {op: "read1", want: "r2"},
		{op: "read1", want: "r0"}, {op: "read0", want: "r2"},
		{op: "kill", id: "r2"},
		{op: "read0", want: "r1"}, {op: "read0", want: "r1"}, {op: "read1", want: "r0"},
		{op: "kill", id: "r1"},
		// r0 leads partition 0 alone: the leader serves and the rotor rests.
		// Partition 1 lost its leader r1 and elects r0 at the tick.
		{op: "read0", want: "r0"}, {op: "read1", want: "r0"},
		{op: "tick"},
		{op: "read0", want: "r0"}, {op: "read1", want: "r0"},
		{op: "revive", id: "r2"},
		// Revived but not yet verified in sync: still not eligible.
		{op: "read0", want: "r0"},
		{op: "tick"},
		{op: "read0", want: "r2"}, {op: "read1", want: "r2"},
		{op: "revive", id: "r1"}, {op: "tick"},
		{op: "read0", want: "r1"}, {op: "read0", want: "r2"}, {op: "read1", want: "r1"},
		{op: "read1", want: "r2"}, {op: "read0", want: "r1"},
	}
	rs, err := NewReplicaSet(ReplicaSetConfig{},
		Replica{ID: "r0", Broker: NewBroker(BrokerConfig{})},
		Replica{ID: "r1", Broker: NewBroker(BrokerConfig{})},
		Replica{ID: "r2", Broker: NewBroker(BrokerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 2; p++ {
		if _, _, err := rs.Produce("t", p, nil, []byte("v"), AckAll); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range steps {
		switch s.op {
		case "read0", "read1":
			if got := readerOf(t, rs, int32(s.op[4]-'0')); got != s.want {
				t.Errorf("step %d (%s): served by %s, want %s", i, s.op, got, s.want)
			}
		case "kill":
			if err := rs.Kill(s.id); err != nil {
				t.Fatal(err)
			}
		case "revive":
			if _, err := rs.Revive(s.id); err != nil {
				t.Fatal(err)
			}
		case "tick":
			rs.Tick()
		}
	}

	rs.mu.Lock()
	defer rs.mu.Unlock()
	ps := &rs.topics["t"].parts[0]
	if allocs := testing.AllocsPerRun(100, func() { rs.pickReaderLocked(ps) }); allocs != 0 {
		t.Errorf("pickReaderLocked allocates %v per call, want 0", allocs)
	}
}

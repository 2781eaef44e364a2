package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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

// followerReadClient must declare FetchEach itself: the one it would
// otherwise inherit from the embedded ReplicatedClient lends the leader's
// log, uncommitted suffix and all. ownFetchEachProbe has a second FetchEach
// two embeddings down (readerTwoDown's); with followerReadClient's own at depth one the
// selector resolves to that, with only the inherited one (depth two as
// well) it is ambiguous and the assignment below stops compiling.
type (
	eachReader interface {
		FetchEach(topic string, reads []PartitionRead, max int, fn func(Message)) int
	}
	readerTwoDown     struct{ eachReader }
	ownFetchEachProbe struct {
		*followerReadClient
		readerTwoDown
	}
)

var _ eachReader = ownFetchEachProbe{}

// replRig is a three-replica set over one virtual clock with a consumer on
// its topic; TestReplicatedPollEachMatchesPollInto runs two in lock step.
type replRig struct {
	rs  *ReplicaSet
	reg *obsv.Registry
	c   *Consumer
}

func newReplRig(t *testing.T, now func() time.Time, client func(rs *ReplicaSet) Client) *replRig {
	t.Helper()
	r := &replRig{reg: obsv.NewRegistry()}
	bcfg := BrokerConfig{MaxRetainedPerPartition: 64, FlowCapacity: 1 << 16, Now: now}
	var err error
	r.rs, err = NewReplicaSet(ReplicaSetConfig{Metrics: r.reg, Rebuild: bcfg},
		Replica{ID: "r0", Broker: NewBroker(bcfg)},
		Replica{ID: "r1", Broker: NewBroker(bcfg)},
		Replica{ID: "r2", Broker: NewBroker(bcfg)})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rs.CreateTopic(TopicOutData, 3); err != nil {
		t.Fatal(err)
	}
	if r.c, err = NewConsumer(client(r.rs), TopicOutData, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// readSide sums what the replicas count about their readers.
func (r *replRig) readSide(t *testing.T) (bytesOut, occupancy int64) {
	t.Helper()
	for _, id := range []string{"r0", "r1", "r2"} {
		b, _, err := r.rs.BrokerFor(id)
		if err != nil {
			t.Fatal(err)
		}
		bytesOut += b.BytesOut()
		occupancy += b.FlowStats(TopicOutData).Occupancy
	}
	return bytesOut, occupancy
}

// TestReplicatedPollEachMatchesPollInto holds the replica set's lent reads
// against its cloning ones, for the leader-read client and the
// follower-read client: two sets fed the same produces — acks=all, and
// acks=1 windows that leave the leader ahead of its followers — through
// the same kills, ticks and revivals, one drained by PollEach through the
// client as it is (FetchEach, under the set's lock), the other by PollInto
// through the same client read in turn (Fetch / FetchCommitted).
// After every poll the messages, Offsets() and the running count of
// messages and wire bytes each consumer handed out agree, and so does
// what the clusters count: bytes read, gate credits, and which
// replica served (repl.follower_fetches, repl.follower_clamped). And a
// committed read never lends a record at or past the commit point.
func TestReplicatedPollEachMatchesPollInto(t *testing.T) {
	kinds := []struct {
		name      string
		committed bool
		client    func(rs *ReplicaSet) Client
		clone     func(rs *ReplicaSet) func(string, int32, int64, int) ([]Message, error)
	}{
		{"leader reads", false, func(rs *ReplicaSet) Client { return rs.Client(AckAll) },
			func(rs *ReplicaSet) func(string, int32, int64, int) ([]Message, error) { return rs.Fetch }},
		{"committed reads", true, func(rs *ReplicaSet) Client { return rs.ReadClient(AckAll) },
			func(rs *ReplicaSet) func(string, int32, int64, int) ([]Message, error) { return rs.FetchCommitted }},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			clock := time.Unix(1_600_000_000, 0)
			now := func() time.Time { return clock }
			each := newReplRig(t, now, kind.client)
			into := newReplRig(t, now, func(rs *ReplicaSet) Client { return inTurn{kind.client(rs), kind.clone(rs)} })
			rigs := []*replRig{each, into}
			dead := ""
			var got, want []Message
			var gm, gb, wm, wb int64 // messages and wire bytes lent, returned
			uncommittedSeen := false
			for round := 0; round < 300; round++ {
				clock = clock.Add(50 * time.Millisecond)
				acks := AckAll
				if round%5 >= 3 {
					acks = AckLeader // the followers fall behind until the next tick
				}
				for n := rng.Intn(12); n > 0; n-- {
					key, value := []byte(fmt.Sprintf("car-%d", rng.Intn(9))), make([]byte, rng.Intn(260))
					rng.Read(value)
					for _, r := range rigs {
						_, _, _ = r.rs.Produce(TopicOutData, AutoPartition, key, value, acks)
					}
				}
				switch {
				case round%40 == 17:
					dead, _, _ = each.rs.Leader(TopicOutData, int32(rng.Intn(3)))
					for _, r := range rigs {
						if err := r.rs.Kill(dead); err != nil {
							t.Fatal(err)
						}
					}
				case round%40 == 31 && dead != "":
					for _, r := range rigs {
						if _, err := r.rs.Revive(dead); err != nil {
							t.Fatal(err)
						}
					}
					dead = ""
				case round%5 == 0:
					for _, r := range rigs {
						r.rs.Tick()
					}
				}
				var commit [3]int64
				for p := range commit {
					commit[p], _ = each.rs.CommittedOffset(TopicOutData, int32(p))
					if hwm, err := each.rs.replicas[each.rs.topics[TopicOutData].parts[p].leader].Broker.HighWaterMark(TopicOutData, int32(p)); err == nil && hwm > commit[p] {
						uncommittedSeen = true
					}
				}
				limit := []int{1, 7, 64, 0, 3 + rng.Intn(40)}[round%5]
				what := fmt.Sprintf("round %d (max %d, dead %q)", round, limit, dead)

				var wantErr error
				want, wantErr = into.c.PollInto(want[:0], limit)
				got = got[:0]
				n, gotErr := each.c.PollEach(limit, func(m Message) {
					if kind.committed && m.Offset >= commit[m.Partition] {
						t.Errorf("%s: lent %s/%d@%d, committed offset %d", what, m.Topic, m.Partition, m.Offset, commit[m.Partition])
					}
					gm, gb = gm+1, gb+int64(m.WireSize())
					got = append(got, owned(m))
				})
				for _, m := range want {
					wm, wb = wm+1, wb+int64(m.WireSize())
				}
				samePoll(t, what, got, want, gotErr, wantErr)
				if n != len(got) || n > limit {
					t.Fatalf("%s: PollEach reported %d messages and lent %d", what, n, len(got))
				}
				for i := range got {
					if !sameMessage(got[i], want[i]) {
						t.Fatalf("%s: message %d lent as %+v, returned as %+v", what, i, got[i], want[i])
					}
				}
				if fmt.Sprint(each.c.Offsets()) != fmt.Sprint(into.c.Offsets()) {
					t.Fatalf("%s: offsets %v after PollEach, %v after PollInto", what, each.c.Offsets(), into.c.Offsets())
				}
				if gm != wm || gb != wb {
					t.Fatalf("%s: %d msgs / %d B received by PollEach, %d / %d by PollInto", what, gm, gb, wm, wb)
				}
				eachOut, eachOcc := each.readSide(t)
				intoOut, intoOcc := into.readSide(t)
				if eachOut != intoOut || eachOcc != intoOcc {
					t.Fatalf("%s: %d B read and %d credits out lending, %d B and %d copying", what, eachOut, eachOcc, intoOut, intoOcc)
				}
				for _, name := range []string{"repl.follower_fetches", "repl.follower_clamped"} {
					if a, b := each.reg.Counter(name).Value(), into.reg.Counter(name).Value(); a != b {
						t.Fatalf("%s: %s %d lending, %d copying", what, name, a, b)
					}
				}
				RecycleMessages(want)
			}
			if gm < 500 || !uncommittedSeen {
				t.Fatalf("the schedule delivered %d messages (uncommitted suffix seen: %t): too thin", gm, uncommittedSeen)
			}
			if kind.committed && each.reg.Counter("repl.follower_fetches").Value() == 0 {
				t.Fatal("no committed read was served by a follower")
			}
		})
	}
}

// TestCommittedFetchEachAtTheEdge holds the follower-read client's
// FetchEach — every partition read under one hold of the set's lock, each
// ending its HWM walk at the first member at or below the read offset —
// to a committed read taken one partition at a time that consults the
// full minimum HWM over the ISR (CommittedOffset) before it reads. Two
// sets take the same produces, with acks=1 windows in which the followers
// lag the leader, and the same kills of leaders and followers, ticks and
// revivals; each round reads every partition a few records either side
// of its committed offset. Both sides lend the same messages, fail the
// same reads and move repl.follower_* alike, and a read lends exactly
// what lies between its offset and the committed offset, up to max.
func TestCommittedFetchEachAtTheEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clock := time.Unix(1_600_000_000, 0)
	now := func() time.Time { return clock }
	readClient := func(rs *ReplicaSet) Client { return rs.ReadClient(AckAll) }
	each := newReplRig(t, now, readClient)
	into := newReplRig(t, now, readClient)
	eachC := each.rs.ReadClient(AckAll)
	// The reference reads a partition only when the full minimum says
	// something past the offset is committed.
	intoC := inTurn{into.rs.ReadClient(AckAll), func(topic string, p int32, off int64, max int) ([]Message, error) {
		c, err := into.rs.CommittedOffset(topic, p)
		if err != nil || off >= c {
			return nil, err
		}
		return into.rs.FetchCommitted(topic, p, off, max)
	}}
	rigs := []*replRig{each, into}
	dead := ""
	lagging, edge := 0, 0
	for round := 0; round < 400; round++ {
		clock = clock.Add(50 * time.Millisecond)
		acks := AckAll
		if round%5 >= 3 {
			acks = AckLeader
		}
		for n := rng.Intn(10); n > 0; n-- {
			key, value := []byte(fmt.Sprintf("car-%d", rng.Intn(9))), make([]byte, 1+rng.Intn(100))
			rng.Read(value)
			for _, r := range rigs {
				_, _, _ = r.rs.Produce(TopicOutData, AutoPartition, key, value, acks)
			}
		}
		switch {
		case round%30 == 11 && dead == "":
			dead = fmt.Sprintf("r%d", rng.Intn(3)) // a leader or a follower
			for _, r := range rigs {
				if err := r.rs.Kill(dead); err != nil {
					t.Fatal(err)
				}
			}
		case round%30 == 23 && dead != "":
			for _, r := range rigs {
				if _, err := r.rs.Revive(dead); err != nil {
					t.Fatal(err)
				}
			}
			dead = ""
		case round%5 == 0:
			for _, r := range rigs {
				r.rs.Tick()
			}
		}

		var commit [3]int64
		var reads, readsRef [3]PartitionRead
		for p := range commit {
			c, err := each.rs.CommittedOffset(TopicOutData, int32(p))
			if err != nil {
				t.Fatalf("round %d: committed offset of %d: %v", round, p, err)
			}
			commit[p] = c
			off := c + int64(rng.Intn(5)-2)
			if off < 0 {
				off = 0
			}
			reads[p] = PartitionRead{Partition: int32(p), Offset: off}
			leader := each.rs.topics[TopicOutData].parts[p].leader
			if hwm, err := each.rs.replicas[leader].Broker.HighWaterMark(TopicOutData, int32(p)); err == nil && hwm > c {
				lagging++
				if off == c {
					edge++
				}
			}
		}
		readsRef = reads
		max := 1 + rng.Intn(8)
		what := fmt.Sprintf("round %d (max %d, dead %q, reads %+v)", round, max, dead, reads)

		var got, want []Message
		n := eachC.FetchEach(TopicOutData, reads[:], max, func(m Message) { got = append(got, owned(m)) })
		m := intoC.FetchEach(TopicOutData, readsRef[:], max, func(m Message) { want = append(want, owned(m)) })
		if n != len(got) || m != len(want) || n != m {
			t.Fatalf("%s: lent %d (reported %d), in turn %d (reported %d)", what, len(got), n, len(want), m)
		}
		for i := range got {
			if !sameMessage(got[i], want[i]) {
				t.Fatalf("%s: message %d lent as %+v, in turn as %+v", what, i, got[i], want[i])
			}
		}
		for p := range reads {
			if (reads[p].Err == nil) != (readsRef[p].Err == nil) {
				t.Fatalf("%s: partition %d read error %v, in turn %v", what, p, reads[p].Err, readsRef[p].Err)
			}
		}
		for _, name := range []string{"repl.follower_fetches", "repl.follower_clamped"} {
			if a, b := each.reg.Counter(name).Value(), into.reg.Counter(name).Value(); a != b {
				t.Fatalf("%s: %s %d at once, %d in turn", what, name, a, b)
			}
		}

		// Against the minimum itself: each partition in turn lends the
		// records from its offset up to the committed offset, until max.
		left, i := max, 0
		for p, r := range reads {
			span := 0
			if r.Offset < commit[p] {
				span = int(min(int64(left), commit[p]-r.Offset))
			}
			for k := 0; k < span; k++ {
				if i >= len(got) || got[i].Partition != int32(p) || got[i].Offset != r.Offset+int64(k) {
					t.Fatalf("%s: want %d/%d next, lent %+v", what, p, r.Offset+int64(k), got[i:])
				}
				i++
			}
			if left -= span; left == 0 {
				break
			}
		}
		if i != len(got) {
			t.Fatalf("%s: lent %d records past the committed offsets %v", what, len(got)-i, commit)
		}
	}
	if lagging < 100 || edge < 20 {
		t.Fatalf("the schedule left followers behind %d times, %d of them read at the edge: too thin", lagging, edge)
	}
	if each.reg.Counter("repl.follower_fetches").Value() == 0 || each.reg.Counter("repl.follower_clamped").Value() == 0 {
		t.Fatal("no committed read was served by a follower or clamped")
	}
}

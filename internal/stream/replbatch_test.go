package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cad3/internal/chaos"
	"cad3/internal/flow"
	"cad3/internal/obsv"
	"cad3/internal/stream"
)

const (
	twinReplicas   = 3
	twinPartitions = 3
	twinRetained   = 40
	twinFetch      = 7 // ReplicaFetch: a bucket of a dozen records is pushed in chunks
)

var twinTopics = []string{stream.TopicInData, stream.TopicOutData}

// batchTwin is one of the two replica sets TestBatchMatchesProduceLoop
// runs in lock step: three brokers on one virtual clock, small enough
// (retention 40, flow capacity 30, replication chunk 7) that a batch of a
// hundred records crosses every bound, each behind a chaos link the
// schedule cuts, drops and duplicates on.
type batchTwin struct {
	rs     *stream.ReplicaSet
	inj    *chaos.Injector
	reg    *obsv.Registry
	client *stream.ReplicatedClient
}

func replicaID(i int) string { return fmt.Sprintf("r%d", i) }

func newBatchTwin(t *testing.T, now func() time.Time) *batchTwin {
	t.Helper()
	w := &batchTwin{inj: chaos.NewInjector(chaos.Config{Seed: 1}), reg: obsv.NewRegistry()}
	bcfg := stream.BrokerConfig{
		MaxRetainedPerPartition: twinRetained,
		FlowCapacity:            30,
		Now:                     now,
	}
	replicas := make([]stream.Replica, twinReplicas)
	for i := range replicas {
		cfg := bcfg
		if i == twinReplicas-1 {
			// One member keeps more than the others (until it is revived on
			// the common configuration): as a follower it still holds what a
			// leader evicted while a batch was on its way, bytes included.
			cfg.MaxRetainedPerPartition = 8 * twinRetained
		}
		b := stream.NewBroker(cfg)
		replicas[i] = stream.Replica{ID: replicaID(i), Broker: b, Link: chaos.NewReplicaLink(w.inj, "ctl", replicaID(i), b)}
	}
	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{ReplicaFetch: twinFetch, Metrics: w.reg, Rebuild: bcfg}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range twinTopics {
		if err := rs.CreateTopic(topic, twinPartitions); err != nil {
			t.Fatal(err)
		}
	}
	w.rs, w.client = rs, rs.Client(stream.AckLeader)
	return w
}

// produceLoop is ReplicatedClient.ProduceBatchAcksInto as it was before
// the replica set took batches: one produce per record, in order.
func (w *batchTwin) produceLoop(topic string, partition int32, recs []stream.BatchRecord, res []stream.BatchResult, acks stream.AckLevel) {
	for i := range recs {
		part, off, err := w.rs.Produce(topic, partition, recs[i].Key, recs[i].Value, acks)
		res[i] = stream.BatchResult{Partition: part, Offset: off, Err: err}
	}
}

// state renders everything the test compares between the twins: every
// replica's liveness, byte counters and logs (base, records with their
// bytes, nil-ness and append times, gate occupancy), every partition's
// leader, epoch and ISR, and the controller's and the gates' counters.
//
// One thing is left out. When a broker was closed behind the controller's
// back, the controller learns of it either from a produce the broker
// refuses as leader (the replica is marked dead) or from a push it refuses
// as follower (an ISR seat is dropped, and counted) — whichever record
// comes first. A batch looks at its leaders before it pushes anything, so
// it may learn the first way what the loop learnt the second way. A dead
// replica's ISR seats are read by nothing (every reader checks liveness
// first, and Revive re-seats them), so they are masked here, and
// repl.isr_drops is compared only until the first unannounced close.
func (w *batchTwin) state(t *testing.T, closedUnannounced bool) []any {
	t.Helper()
	var out []any
	var alive [twinReplicas]bool
	for i := 0; i < twinReplicas; i++ {
		b, up, err := w.rs.BrokerFor(replicaID(i))
		if err != nil {
			t.Fatal(err)
		}
		alive[i] = up
		out = append(out, replicaID(i), up, b.BytesIn(), b.BytesOut())
		for _, topic := range twinTopics {
			out = append(out, b.FlowStats(topic))
			for p := int32(0); p < twinPartitions; p++ {
				out = append(out, stream.DumpLog(b, topic, p))
			}
		}
	}
	for _, topic := range twinTopics {
		for p := int32(0); p < twinPartitions; p++ {
			ps := w.rs.DumpPartition(topic, p)
			for i := range ps.ISR {
				ps.ISR[i] = ps.ISR[i] && alive[i]
			}
			out = append(out, ps)
		}
	}
	snap := w.reg.Snapshot()
	for _, name := range []string{"election.count", "repl.catchups", "repl.push_fallbacks", "repl.follower_fetches", "repl.follower_clamped"} {
		out = append(out, name, snap.Counters[name])
	}
	if !closedUnannounced {
		out = append(out, "repl.isr_drops", snap.Counters["repl.isr_drops"])
	}
	return out
}

// firstDifference names the first element two states differ in.
func firstDifference(a, b []any) string {
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("element %d (after %v):\n batched: %.600v\n looped:  %.600v", i, a[max(i-1, 0)], fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i]))
		}
	}
	return ""
}

// sameResults compares two batches' answers: partition, offset, hint, and
// the refusal by its text (each produce makes its own error value).
func sameResults(a, b []stream.BatchResult) bool {
	for i := range a {
		if a[i].Partition != b[i].Partition || a[i].Offset != b[i].Offset || a[i].RetryAfter != b[i].RetryAfter ||
			fmt.Sprint(a[i].Err) != fmt.Sprint(b[i].Err) {
			return false
		}
	}
	return len(a) == len(b)
}

// shedBetweenAcks reports whether a gate refused in the middle of a batch:
// a backpressure refusal with an ack before it and another after.
func shedBetweenAcks(res []stream.BatchResult) bool {
	state := 0 // 0: nothing yet, 1: an ack, 2: then a refusal
	for _, r := range res {
		switch {
		case r.Err == nil && state == 0:
			state = 1
		case errors.Is(r.Err, flow.ErrBackpressure) && state == 1:
			state = 2
		case r.Err == nil && state == 2:
			return true
		}
	}
	return false
}

// twinSchedule draws the steps both twins take.
type twinSchedule struct {
	rng       *rand.Rand
	oversized []byte
	n         int
	fat       bool // this batch's values are kilobytes: it fills log chunks as it goes
}

// payload draws a key or value: nil, empty, small, a traced record frame
// (the leader stamps its copy, the followers must get the stamp) or, for a
// value now and then, more than a log chunk or more than a message may be.
func (s *twinSchedule) payload(value bool) []byte {
	s.n++
	var b []byte
	switch k := s.rng.Intn(400); {
	case k < 10:
		return nil
	case k < 20:
		return []byte{}
	case k < 60 && value:
		b = make([]byte, obsv.RecordFrameSize)
		obsv.PutTrace(b[obsv.RecordTraceOffset:], obsv.TraceContext{})
	case k < 64 && value:
		return s.oversized
	case k == 64 && value:
		b = make([]byte, 70<<10)
	case !value:
		return []byte(fmt.Sprintf("car-%d", s.rng.Intn(12)))
	case s.fat:
		b = make([]byte, 6<<10+s.rng.Intn(3<<10))
	default:
		b = make([]byte, 1+s.rng.Intn(240))
	}
	for i := 0; i < len(b) && i < 16; i++ {
		b[i] += byte(s.n + i)
	}
	return b
}

func (s *twinSchedule) batch() (topic string, partition int32, recs []stream.BatchRecord, acks stream.AckLevel) {
	topic = twinTopics[s.rng.Intn(len(twinTopics))]
	if s.rng.Intn(40) == 0 {
		topic = "no-such-topic"
	}
	partition = stream.AutoPartition
	switch s.rng.Intn(8) {
	case 0:
		partition = int32(s.rng.Intn(twinPartitions))
	case 1:
		partition = []int32{twinPartitions, 7, -5}[s.rng.Intn(3)]
	}
	// Nothing, a handful, more than a replication chunk per partition, more
	// than a partition retains.
	n := []int{0, 1 + s.rng.Intn(5), 3*twinFetch + s.rng.Intn(30), 3*twinRetained + s.rng.Intn(60)}[s.rng.Intn(4)]
	// A batch of values big enough that the leader's log vacates and refills
	// whole chunks while the batch is still on its way to the followers.
	s.fat = s.rng.Intn(6) == 0
	recs = make([]stream.BatchRecord, n)
	for i := range recs {
		recs[i] = stream.BatchRecord{Key: s.payload(false), Value: s.payload(true)}
	}
	acks = []stream.AckLevel{stream.AckAll, stream.AckAll, stream.AckLeader, stream.AckNone}[s.rng.Intn(4)]
	return topic, partition, recs, acks
}

// TestBatchMatchesProduceLoop is the differential the batched replica set
// is held to: a seeded schedule of batches — keyed, nil-keyed, pinned to a
// partition or to one that does not exist, with oversized values, on a
// sheddable topic whose gates refuse in the middle of a batch, at every ack
// level — between kills, ticks, revivals, reads that move credits, leaders
// closed behind the controller's back and links that are cut, lose every
// append or deliver every append twice. One twin takes each batch through
// ProduceBatchAcksInto, the other through a produce per record. After
// every step the answers and both whole clusters must be the same.
//
// The fault modes are all-or-nothing on purpose: a batch makes fewer link
// operations than its records one by one, so a fault drawn per operation
// with a probability in between would hit the two twins at different
// records, and they would differ by design, not by a bug.
func TestBatchMatchesProduceLoop(t *testing.T) {
	var fallbacks, elections, refusedMidBatch, closedMidBatch, acked int64
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			clock := time.Unix(1_600_000_000, 0)
			now := func() time.Time { return clock }
			batched, looped := newBatchTwin(t, now), newBatchTwin(t, now)
			twins := []*batchTwin{batched, looped}
			closed := false // a broker has been closed behind the controller's back
			s := &twinSchedule{rng: rand.New(rand.NewSource(seed)), oversized: make([]byte, stream.MaxMessageSize+1)}
			for step := 0; step < 500; step++ {
				what := fmt.Sprintf("step %d", step)
				switch op := s.rng.Intn(60); {
				case op < 24:
					topic, partition, recs, acks := s.batch()
					what += fmt.Sprintf(": batch of %d to %s/%d at acks=%s", len(recs), topic, partition, acks)
					got, want := make([]stream.BatchResult, len(recs)), make([]stream.BatchResult, len(recs))
					if err := batched.client.ProduceBatchAcksInto(topic, partition, recs, got, acks); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					looped.produceLoop(topic, partition, recs, want, acks)
					if !sameResults(got, want) {
						for i := range got {
							if !sameResults(got[i:i+1], want[i:i+1]) {
								t.Fatalf("%s: record %d settled as %+v, by the loop as %+v", what, i, got[i], want[i])
							}
						}
					}
					if shedBetweenAcks(want) {
						refusedMidBatch++
					}
					for _, r := range want {
						if r.Err == nil {
							acked++
						}
					}
				case op < 30:
					clock = clock.Add(time.Duration(s.rng.Intn(120)) * time.Millisecond)
				case op < 40:
					what += ": tick"
					for _, w := range twins {
						w.rs.Tick()
					}
				case op == 40:
					id := replicaID(s.rng.Intn(twinReplicas))
					what += ": kill " + id
					for _, w := range twins {
						_ = w.rs.Kill(id)
					}
				case op < 44:
					id := replicaID(s.rng.Intn(twinReplicas))
					for i := 0; i < twinReplicas; i++ { // a dead one, if there is one
						if _, alive, _ := batched.rs.BrokerFor(replicaID(i)); !alive {
							id = replicaID(i)
						}
					}
					what += ": revive " + id
					var errs [2]error
					for i, w := range twins {
						_, errs[i] = w.rs.Revive(id)
					}
					if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
						t.Fatalf("%s: %v batched, %v looped", what, errs[0], errs[1])
					}
				case op == 44:
					// A leader's broker closes and nobody tells the controller:
					// the next produce to reach it finds out, in the middle of
					// whatever batch it is part of.
					topic, p := twinTopics[s.rng.Intn(len(twinTopics))], int32(s.rng.Intn(twinPartitions))
					what += fmt.Sprintf(": close the leader of %s/%d", topic, p)
					for _, w := range twins {
						if id, _, ok := w.rs.Leader(topic, p); ok {
							b, _, _ := w.rs.BrokerFor(id)
							_ = b.Close()
						}
					}
					closedMidBatch++
					closed = true
				case op < 50:
					id := replicaID(s.rng.Intn(twinReplicas))
					cut := op < 47
					what += fmt.Sprintf(": link to %s cut=%t (or all healed)", id, cut)
					for _, w := range twins {
						if cut {
							w.inj.Partition("ctl", id)
						} else {
							w.inj.HealAll()
						}
					}
				case op < 55:
					cfg := []chaos.Config{{DropProb: 1}, {DupProb: 1}, {}, {}, {}}[op-50]
					what += fmt.Sprintf(": links drop=%v dup=%v", cfg.DropProb, cfg.DupProb)
					for _, w := range twins {
						w.inj.SetConfig(cfg)
					}
				default:
					// A read, committed or off the leader: it returns credits
					// to the gates, which is what lets a shedding partition
					// admit again.
					topic, p := twinTopics[s.rng.Intn(len(twinTopics))], int32(s.rng.Intn(twinPartitions))
					off, max, committed := int64(s.rng.Intn(400)), 1+s.rng.Intn(60), s.rng.Intn(2) == 0
					what += fmt.Sprintf(": read %s/%d at %d (committed=%t)", topic, p, off, committed)
					var got [2][]stream.Message
					var errs [2]error
					for i, w := range twins {
						if committed {
							got[i], errs[i] = w.rs.FetchCommitted(topic, p, off, max)
						} else {
							got[i], errs[i] = w.rs.Fetch(topic, p, off, max)
						}
					}
					if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || !reflect.DeepEqual(got[0], got[1]) {
						t.Fatalf("%s: %d messages (%v) batched, %d (%v) looped", what, len(got[0]), errs[0], len(got[1]), errs[1])
					}
				}
				if diff := firstDifference(batched.state(t, closed), looped.state(t, closed)); diff != "" {
					t.Fatalf("%s: the clusters differ at %s", what, diff)
				}
			}
			snap := batched.reg.Snapshot()
			fallbacks += snap.Counters["repl.push_fallbacks"]
			elections += snap.Counters["election.count"]
		})
	}
	// The schedules must have reached what they are there to reach.
	t.Logf("%d records acked, %d push fallbacks, %d elections, %d batches refused in the middle, %d leaders closed unannounced",
		acked, fallbacks, elections, refusedMidBatch, closedMidBatch)
	if acked < 10000 || fallbacks < 10 || elections < 10 || refusedMidBatch < 10 || closedMidBatch < 10 {
		t.Errorf("the schedules are too thin to tell the twins apart")
	}
}

// TestBatchPushOutlivesLeaderEviction: a bucket bigger than the leader
// retains makes the leader evict records of the very batch it is about to
// push, and hand their chunks to the records behind them. A follower that
// retains more must still receive every record with its own bytes — the
// leader pushes what it holds before it appends over it.
func TestBatchPushOutlivesLeaderEviction(t *testing.T) {
	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{},
		stream.Replica{ID: "r0", Broker: stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 40})},
		stream.Replica{ID: "r1", Broker: stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 1000})})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	recs := make([]stream.BatchRecord, 200) // 8 KiB apiece: eight to a chunk, five chunks retained
	for i := range recs {
		recs[i] = stream.BatchRecord{Key: []byte("car-1"), Value: bytes.Repeat([]byte{byte(i)}, 8<<10)}
	}
	res := make([]stream.BatchResult, len(recs))
	if err := rs.Client(stream.AckAll).ProduceBatchAcksInto("t", 0, recs, res, stream.AckAll); err != nil {
		t.Fatal(err)
	}
	if lead := stream.DumpLog(mustBroker(t, rs, 0), "t", 0); lead.Base == 0 {
		t.Fatal("the leader evicted nothing: the batch did not outgrow its log")
	}
	got := stream.DumpLog(mustBroker(t, rs, 1), "t", 0).Records
	if len(got) != len(recs) {
		t.Fatalf("the follower holds %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if res[i].Err != nil || res[i].Offset != int64(i) || !bytes.Equal(r.Value, recs[i].Value) {
			t.Fatalf("record %d (offset %d, %v) reached the follower starting with byte %d", i, res[i].Offset, res[i].Err, r.Value[0])
		}
	}
}

// countingLink counts the appends that carry records (an empty one is a
// catch-up probe).
type countingLink struct {
	stream.ReplicaLink
	appends, records int
}

func (l *countingLink) ReplicaAppend(topicName string, partition int32, epoch, base int64, recs []stream.ReplicaRecord) (int64, error) {
	if len(recs) > 0 {
		l.appends++
		l.records += len(recs)
	}
	return l.ReplicaLink.ReplicaAppend(topicName, partition, epoch, base, recs)
}

// newCountedSet is three in-process replicas behind counting links, with
// the default replication chunk and logs bounded at retained records: at
// 1024, a 256-record window turns them over every few rounds.
func newCountedSet(t testing.TB, retained int) (*stream.ReplicaSet, []*countingLink) {
	t.Helper()
	bcfg := stream.BrokerConfig{MaxRetainedPerPartition: retained}
	links := make([]*countingLink, twinReplicas)
	replicas := make([]stream.Replica, twinReplicas)
	for i := range replicas {
		b := stream.NewBroker(bcfg)
		links[i] = &countingLink{ReplicaLink: b}
		replicas[i] = stream.Replica{ID: replicaID(i), Broker: b, Link: links[i]}
	}
	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{Rebuild: bcfg}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic(stream.TopicInData, twinPartitions); err != nil {
		t.Fatal(err)
	}
	return rs, links
}

// telemetryWindow is a 256-record window of keyed 200 B records from 64
// cars, interleaved the way a fleet's telemetry is.
func telemetryWindow() []stream.BatchRecord {
	recs := make([]stream.BatchRecord, 256)
	for i := range recs {
		recs[i] = stream.BatchRecord{Key: []byte(fmt.Sprintf("car-%d", i*37%64)), Value: make([]byte, 200)}
	}
	return recs
}

// TestBatchPushesOncePerFollower: an acks=all window reaches each in-sync
// follower of each partition it touches in ONE ReplicaAppend — two per
// partition over three replicas — carrying every record once, where the
// per-record loop made two appends per record.
func TestBatchPushesOncePerFollower(t *testing.T) {
	rs, links := newCountedSet(t, 1024)
	recs := telemetryWindow()
	res := make([]stream.BatchResult, len(recs))
	if err := rs.Client(stream.AckAll).ProduceBatchAcksInto(stream.TopicInData, stream.AutoPartition, recs, res, stream.AckAll); err != nil {
		t.Fatal(err)
	}
	touched := map[int32]bool{}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("record %d refused: %v", i, r.Err)
		}
		touched[r.Partition] = true
	}
	if len(touched) != twinPartitions {
		t.Fatalf("the window touched %d partitions, want %d", len(touched), twinPartitions)
	}
	appends, records := 0, 0
	for _, l := range links {
		appends += l.appends
		records += l.records
	}
	if want := 2 * len(touched); appends != want {
		t.Errorf("a %d-record acks=all batch made %d replica appends, want %d (one per follower per partition)", len(recs), appends, want)
	}
	if want := 2 * len(recs); records != want {
		t.Errorf("the appends carried %d records, want %d", records, want)
	}
	for p := int32(0); p < twinPartitions; p++ {
		lead := stream.DumpLog(mustBroker(t, rs, 0), stream.TopicInData, p)
		for i := 1; i < twinReplicas; i++ {
			if f := stream.DumpLog(mustBroker(t, rs, i), stream.TopicInData, p); !reflect.DeepEqual(f, lead) {
				t.Errorf("partition %d: replica %d's log differs from replica 0's", p, i)
			}
		}
	}
}

func mustBroker(t testing.TB, rs *stream.ReplicaSet, i int) *stream.Broker {
	t.Helper()
	b, _, err := rs.BrokerFor(replicaID(i))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplicaSetBatchSteadyStateAllocs: a warm acks=all window — bucketing,
// three leader appends, six follower pushes, retention turning the logs
// over on all nine of them — takes nothing from the allocator.
func TestReplicaSetBatchSteadyStateAllocs(t *testing.T) {
	rs, _ := newCountedSet(t, 1024)
	client := rs.Client(stream.AckAll)
	recs := telemetryWindow()
	res := make([]stream.BatchResult, len(recs))
	window := func() {
		if err := client.ProduceBatchAcksInto(stream.TopicInData, stream.AutoPartition, recs, res, stream.AckAll); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		window() // several retention cycles: scratch, index and spare chunks at capacity
	}
	if allocs := testing.AllocsPerRun(64, window); allocs != 0 {
		t.Errorf("a warm %d-record acks=all batch over %d replicas: %v allocs, want 0", len(recs), twinReplicas, allocs)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("record %d refused: %v", i, r.Err)
		}
	}
}

// TestReplicaSetConcurrentBatchesAndLentReads runs what the replicated
// RSU runs at once, for the race detector: two producers writing acks=all
// windows, a consumer draining through the follower-read client's lent
// reads, and a control plane ticking — all through one controller mutex
// and its shared scratch. Every acked record is lent exactly once, in
// offset order on its partition.
func TestReplicaSetConcurrentBatchesAndLentReads(t *testing.T) {
	const producers, windows = 2, 40
	rs, _ := newCountedSet(t, producers*windows*256) // nothing is evicted before it is read
	var wg sync.WaitGroup
	var acked atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := rs.Client(stream.AckAll)
			recs := telemetryWindow()
			res := make([]stream.BatchResult, len(recs))
			for w := 0; w < windows; w++ {
				if err := client.ProduceBatchAcksInto(stream.TopicInData, stream.AutoPartition, recs, res, stream.AckAll); err != nil {
					t.Error(err)
					return
				}
				for _, r := range res {
					if r.Err != nil {
						t.Errorf("refused: %v", r.Err)
						return
					}
				}
				acked.Add(int64(len(recs)))
			}
		}()
	}
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				rs.Tick()
				runtime.Gosched()
			}
		}
	}()
	consumer, err := stream.NewConsumer(rs.ReadClient(stream.AckAll), stream.TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int64, twinPartitions)
	var lent int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for lent < producers*windows*256 {
			n, err := consumer.PollEach(512, func(m stream.Message) {
				if m.Offset != next[m.Partition] || len(m.Value) != 200 {
					t.Errorf("partition %d lent offset %d (%d B), want %d", m.Partition, m.Offset, len(m.Value), next[m.Partition])
				}
				next[m.Partition] = m.Offset + 1
			})
			if err != nil {
				t.Error(err)
				return
			}
			lent += int64(n)
			runtime.Gosched()
		}
	}()
	wg.Wait()
	<-drained
	close(stop)
	<-ticked
	if lent != acked.Load() {
		t.Fatalf("lent %d records, %d were acked", lent, acked.Load())
	}
}

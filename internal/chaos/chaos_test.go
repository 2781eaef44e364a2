package chaos

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"cad3/internal/flow"
	"cad3/internal/stream"
)

func newBrokerClient(t *testing.T) *stream.InProcClient {
	t.Helper()
	b := stream.NewBroker(stream.BrokerConfig{})
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	return stream.NewInProcClient(b)
}

// readAll reads one partition from offset 0 through c's FetchEach and
// returns clones of what it lent, or the read's error.
func readAll(c stream.Client, topic string, partition int32, max int) ([]stream.Message, error) {
	reads := []stream.PartitionRead{{Partition: partition}}
	var out []stream.Message
	c.FetchEach(topic, reads, max, func(m stream.Message) { out = append(out, m.Clone()) })
	return out, reads[0].Err
}

// drive runs a fixed operation sequence through a chaos client and
// returns the observed fault fingerprint.
func drive(t *testing.T, seed int64, ops int) (Stats, []int64) {
	t.Helper()
	inj := NewInjector(Config{Seed: seed, DropProb: 0.2, DupProb: 0.1, KillProb: 0.1, DelayProb: 0.3})
	c := NewClient(inj, "a", "b", newBrokerClient(t))
	c.Sleep = func(time.Duration) {} // virtual: no wall-clock waits
	offsets := make([]int64, 0, ops)
	for i := 0; i < ops; i++ {
		_, off, err := c.Produce("t", 0, nil, []byte("payload"))
		if err != nil {
			off = -2 // fingerprint kills distinctly from drops (-1)
		}
		offsets = append(offsets, off)
	}
	return inj.Stats(), offsets
}

func TestInjectorDeterministicUnderSeed(t *testing.T) {
	s1, o1 := drive(t, 42, 200)
	s2, o2 := drive(t, 42, 200)
	if s1 != s2 {
		t.Errorf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Error("same seed produced different offset sequences")
	}
	s3, o3 := drive(t, 7, 200)
	if s1 == s3 && reflect.DeepEqual(o1, o3) {
		t.Error("different seeds produced identical runs")
	}
	if s1.Drops == 0 || s1.Kills == 0 || s1.Dups == 0 || s1.Delays == 0 {
		t.Errorf("expected every fault kind at these probabilities: %+v", s1)
	}
}

func TestPartitionIsAsymmetric(t *testing.T) {
	inj := NewInjector(Config{Seed: 1})
	inner := newBrokerClient(t)
	ab := NewClient(inj, "a", "b", inner)
	ba := NewClient(inj, "b", "a", inner)

	inj.Partition("a", "b")
	if _, _, err := ab.Produce("t", 0, nil, []byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Errorf("a->b err = %v, want ErrLinkDown", err)
	}
	if _, _, err := ba.Produce("t", 0, nil, []byte("x")); err != nil {
		t.Errorf("b->a should be unaffected, got %v", err)
	}
	if !inj.Partitioned("a", "b") || inj.Partitioned("b", "a") {
		t.Error("partition matrix wrong")
	}

	inj.Heal("a", "b")
	if _, _, err := ab.Produce("t", 0, nil, []byte("x")); err != nil {
		t.Errorf("healed link still failing: %v", err)
	}
	if got := inj.Stats().Blocked; got != 1 {
		t.Errorf("Blocked = %d, want 1", got)
	}
}

func TestDropIsInvisibleToSender(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, DropProb: 1})
	inner := newBrokerClient(t)
	c := NewClient(inj, "a", "b", inner)
	part, off, err := c.Produce("t", stream.AutoPartition, nil, []byte("lost"))
	if err != nil {
		t.Fatalf("drop must look like success, got %v", err)
	}
	if off != -1 || part != 0 {
		t.Errorf("dropped produce = (%d, %d), want (0, -1)", part, off)
	}
	msgs, err := inner.Fetch("t", 0, 0, 10)
	if err != nil || len(msgs) != 0 {
		t.Errorf("broker saw %d messages, want 0 (err %v)", len(msgs), err)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, DupProb: 1})
	inner := newBrokerClient(t)
	c := NewClient(inj, "a", "b", inner)
	if _, _, err := c.Produce("t", 0, nil, []byte("twice")); err != nil {
		t.Fatal(err)
	}
	msgs, err := inner.Fetch("t", 0, 0, 10)
	if err != nil || len(msgs) != 2 {
		t.Errorf("broker saw %d messages, want 2 (err %v)", len(msgs), err)
	}
}

func TestKillSurfacesAsTransportError(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, KillProb: 1})
	c := NewClient(inj, "a", "b", newBrokerClient(t))
	if _, err := readAll(c, "t", 0, 1); !errors.Is(err, ErrConnKilled) {
		t.Errorf("err = %v, want ErrConnKilled", err)
	}
	if _, err := c.PartitionCount("t"); !errors.Is(err, ErrConnKilled) {
		t.Errorf("err = %v, want ErrConnKilled", err)
	}
	if _, err := c.ListTopics(); !errors.Is(err, ErrConnKilled) {
		t.Errorf("err = %v, want ErrConnKilled", err)
	}
	if err := c.CreateTopic("u", 1); !errors.Is(err, ErrConnKilled) {
		t.Errorf("err = %v, want ErrConnKilled", err)
	}
}

// A broker's backpressure verdict must survive the chaos wrapper intact:
// a faulty link does not launder flow control into a transport error, and
// the retry-after hint stays readable.
func TestBackpressurePassesThroughChaosClient(t *testing.T) {
	b := stream.NewBroker(stream.BrokerConfig{FlowCapacity: 1})
	if err := b.CreateTopic(stream.TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(Config{Seed: 1}) // no fault probabilities: clean link
	c := NewClient(inj, "veh", "rsu", stream.NewInProcClient(b))

	if _, _, err := c.Produce(stream.TopicInData, 0, nil, []byte("t")); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.Produce(stream.TopicInData, 0, nil, []byte("t"))
	if !errors.Is(err, flow.ErrBackpressure) {
		t.Fatalf("got %v, want backpressure through the chaos client", err)
	}
	if hint, ok := flow.RetryAfter(err); !ok || hint <= 0 {
		t.Errorf("hint lost through the chaos client: %v, %v", hint, ok)
	}

	// With the link partitioned, the link fault wins — the broker is never
	// consulted, and the error is the link's, not flow control's.
	inj.Partition("veh", "rsu")
	if _, _, err := c.Produce(stream.TopicInData, 0, nil, []byte("t")); !errors.Is(err, ErrLinkDown) {
		t.Errorf("partitioned link: got %v, want ErrLinkDown", err)
	}
}

// The delay fault must never fall back to time.Sleep: a nil Sleep hook
// under a delay-capable config is a misconfiguration that would couple a
// "deterministic" experiment to the host scheduler, so apply panics
// instead (the virtualclock analyzer enforces the static side of this).
func TestDelayWithNilSleepPanics(t *testing.T) {
	inj := NewInjector(Config{Seed: 1, DelayProb: 1, MinDelay: time.Millisecond})
	c := NewClient(inj, "a", "b", newBrokerClient(t))
	defer func() {
		if recover() == nil {
			t.Fatal("Produce with a drawn delay and nil Sleep did not panic")
		}
	}()
	_, _, _ = c.Produce("t", 0, nil, []byte("payload"))
}

// With an injected Sleep the drawn delays are delivered to the hook —
// virtual time advances, the wall clock does not.
func TestDelayUsesInjectedSleep(t *testing.T) {
	inj := NewInjector(Config{Seed: 1, DelayProb: 1, MinDelay: 2 * time.Millisecond, MaxDelay: 2 * time.Millisecond})
	c := NewClient(inj, "a", "b", newBrokerClient(t))
	var virtual time.Duration
	c.Sleep = func(d time.Duration) { virtual += d }
	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, _, err := c.Produce("t", 0, nil, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if want := 100 * time.Millisecond; virtual != want {
		t.Errorf("virtual sleep accumulated %v, want %v", virtual, want)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("wall clock advanced %v — delays leaked out of the hook", elapsed)
	}
}

// TestBatchAndReadsDrawLikeSingleCalls: a batch draws a fault per record
// and a FetchEach one per partition it reads, exactly as the same records
// produced one by one and the same partitions read one by one do under
// the same seed — same answers, same broker log — so a seeded run replays
// whichever way its caller asks.
func TestBatchAndReadsDrawLikeSingleCalls(t *testing.T) {
	cfg := Config{Seed: 9, DropProb: 0.2, DupProb: 0.1, KillProb: 0.2}
	batchedLog, singleLog := newBrokerClient(t), newBrokerClient(t)
	batched := NewClient(NewInjector(cfg), "a", "b", batchedLog)
	single := NewClient(NewInjector(cfg), "a", "b", singleLog)

	recs := make([]stream.BatchRecord, 60)
	for i := range recs {
		recs[i] = stream.BatchRecord{Key: []byte{byte('a' + i%5)}, Value: []byte{'v', byte(i)}}
	}
	res := make([]stream.BatchResult, len(recs))
	if err := batched.ProduceBatchInto("t", stream.AutoPartition, recs, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		part, off, err := single.Produce("t", stream.AutoPartition, r.Key, r.Value)
		if part != res[i].Partition || off != res[i].Offset || (err == nil) != (res[i].Err == nil) {
			t.Fatalf("record %d: batch answered %d@%d (%v), Produce %d@%d (%v)",
				i, res[i].Partition, res[i].Offset, res[i].Err, part, off, err)
		}
	}
	for p := int32(0); p < 3; p++ {
		a, errA := batchedLog.Fetch("t", p, 0, 1000)
		b, errB := singleLog.Fetch("t", p, 0, 1000)
		if errA != nil || errB != nil || len(a) != len(b) {
			t.Fatalf("partition %d: %d records after the batch (%v), %d one by one (%v)", p, len(a), errA, len(b), errB)
		}
		for i := range a {
			if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
				t.Fatalf("partition %d offset %d: %q=%q after the batch, %q=%q one by one", p, i, a[i].Key, a[i].Value, b[i].Key, b[i].Value)
			}
		}
	}

	for round := 0; round < 20; round++ {
		reads := []stream.PartitionRead{{Partition: 0}, {Partition: 1}, {Partition: 2}}
		max := 1 + 3*round
		var lent, want []int64
		n := batched.FetchEach("t", reads, max, func(m stream.Message) { lent = append(lent, m.Offset) })
		got := 0
		for _, r := range reads {
			if got >= max {
				if r.Err != nil {
					t.Fatalf("round %d: a read past max failed: %v", round, r.Err)
				}
				continue
			}
			msgs, err := readAll(single, "t", r.Partition, max-got)
			if (err == nil) != (r.Err == nil) {
				t.Fatalf("round %d: partition %d read failed with %v, alone with %v", round, r.Partition, r.Err, err)
			}
			for _, m := range msgs {
				want = append(want, m.Offset)
			}
			got += len(msgs)
		}
		if n != got || !reflect.DeepEqual(lent, want) {
			t.Fatalf("round %d: FetchEach lent %d %v, reads one by one %d %v", round, n, lent, got, want)
		}
	}
	if a, b := batched.Injector().Stats(), single.Injector().Stats(); a != b || a.Kills == 0 || a.Drops == 0 {
		t.Errorf("faults drawn: %+v batched, %+v one by one; want the same, with kills and drops", a, b)
	}
}

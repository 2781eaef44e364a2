package stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cad3/internal/obsv"
)

func groupFixture(t *testing.T) (*Broker, Client, *Producer) {
	t.Helper()
	b := newTestBroker(t)
	client := NewInProcClient(b)
	p, err := NewProducer(client, TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	return b, client, p
}

func TestGroupSingleMemberGetsAll(t *testing.T) {
	_, client, p := groupFixture(t)
	g, err := NewGroup(client, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Join("only")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Assignment(); len(got) != DefaultPartitions {
		t.Errorf("assignment = %v, want all %d partitions", got, DefaultPartitions)
	}
	for i := 0; i < 30; i++ {
		_, _, _ = p.Send([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	var got int
	for {
		msgs, err := m.Poll(8)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		got += len(msgs)
	}
	if got != 30 {
		t.Errorf("single member consumed %d, want 30", got)
	}
}

func TestGroupPartitionsSplitExactlyOnce(t *testing.T) {
	_, client, p := groupFixture(t)
	g, err := NewGroup(client, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := g.Join("a")
	m2, _ := g.Join("b")
	m3, _ := g.Join("c")

	// Every partition assigned to exactly one member.
	seen := make(map[int32]string)
	for _, m := range []*GroupMember{m1, m2, m3} {
		for _, part := range m.Assignment() {
			if owner, dup := seen[part]; dup {
				t.Fatalf("partition %d assigned to %s and %s", part, owner, m.ID())
			}
			seen[part] = m.ID()
		}
	}
	if len(seen) != DefaultPartitions {
		t.Fatalf("assignments cover %d partitions, want %d", len(seen), DefaultPartitions)
	}

	for i := 0; i < 60; i++ {
		_, _, _ = p.Send([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("m%d", i)))
	}
	delivered := make(map[string]bool)
	for _, m := range []*GroupMember{m1, m2, m3} {
		for {
			msgs, err := m.Poll(16)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) == 0 {
				break
			}
			for _, msg := range msgs {
				v := string(msg.Value)
				if delivered[v] {
					t.Fatalf("message %q delivered twice", v)
				}
				delivered[v] = true
			}
		}
	}
	if len(delivered) != 60 {
		t.Errorf("group consumed %d unique messages, want 60", len(delivered))
	}
}

func TestGroupRebalanceOnLeave(t *testing.T) {
	_, client, p := groupFixture(t)
	reg := obsv.NewRegistry()
	g, err := NewGroupCfg(GroupConfig{Client: client, Topic: TopicInData, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := g.Join("a")
	if gen := g.Generation(); gen != 1 {
		t.Fatalf("generation after first join = %d, want 1", gen)
	}
	m2, _ := g.Join("b")
	if gen := g.Generation(); gen != 2 {
		t.Fatalf("generation after second join = %d, want 2", gen)
	}

	for i := 0; i < 30; i++ {
		_, _, _ = p.Send([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("m%d", i)))
	}
	// m1 consumes its share, then leaves.
	first, err := m1.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Leave("a"); err != nil {
		t.Fatal(err)
	}
	if gen := g.Generation(); gen != 3 {
		t.Errorf("generation after leave = %d, want 3", gen)
	}
	if bumps := reg.Snapshot().Counters["rebalance.generations"]; bumps != 3 {
		t.Errorf("rebalance.generations = %d, want 3", bumps)
	}
	// m2 now owns everything and picks up from committed offsets: the
	// remaining messages come through exactly once.
	if got := m2.Assignment(); len(got) != DefaultPartitions {
		t.Errorf("survivor assignment = %v", got)
	}
	seen := make(map[string]bool)
	for _, msg := range first {
		seen[string(msg.Value)] = true
	}
	for {
		msgs, err := m2.Poll(16)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		for _, msg := range msgs {
			v := string(msg.Value)
			if seen[v] {
				t.Fatalf("message %q delivered twice across rebalance", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 30 {
		t.Errorf("group consumed %d unique messages, want 30", len(seen))
	}
	// The departed member can no longer poll.
	if _, err := m1.Poll(1); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("err = %v, want ErrUnknownMember", err)
	}
}

func TestGroupValidation(t *testing.T) {
	_, client, _ := groupFixture(t)
	if _, err := NewGroup(nil, TopicInData, 0); err == nil {
		t.Error("want error for nil client")
	}
	if _, err := NewGroup(client, "missing", 0); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("err = %v, want ErrUnknownTopic", err)
	}
	g, _ := NewGroup(client, TopicInData, 0)
	if _, err := g.Join(""); err == nil {
		t.Error("want error for empty member id")
	}
	if _, err := g.Join("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Join("x"); !errors.Is(err, ErrMemberExists) {
		t.Errorf("err = %v, want ErrMemberExists", err)
	}
	if err := g.Leave("ghost"); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("err = %v, want ErrUnknownMember", err)
	}
	if got := g.Members(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Members = %v", got)
	}
	if offs := g.Offsets(); len(offs) != DefaultPartitions {
		t.Errorf("Offsets = %v", offs)
	}
	m, _ := g.Join("y")
	if msgs, err := m.Poll(0); err != nil || msgs != nil {
		t.Errorf("Poll(0) = %v, %v", msgs, err)
	}
}

// tripClient interposes a Client and runs trip once, just before the
// first read — a deterministic way to land a rebalance in the middle of an
// in-flight Poll.
type tripClient struct {
	Client
	once sync.Once
	trip func()
}

func (c *tripClient) FetchEach(topic string, reads []PartitionRead, max int, fn func(Message)) int {
	c.once.Do(c.trip)
	return c.Client.FetchEach(topic, reads, max, fn)
}

// TestGroupRebalanceMidPollFencesGeneration lands a join in the middle
// of another member's Poll: the poll must deliver only messages from
// partitions its member still owns under the new generation, and the
// new assignee must re-read the revoked partitions — every produced
// message delivered exactly once across the pair.
func TestGroupRebalanceMidPollFencesGeneration(t *testing.T) {
	_, inner, p := groupFixture(t)
	tc := &tripClient{Client: inner}
	g, err := NewGroup(tc, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := g.Join("w1")
	if err != nil {
		t.Fatal(err)
	}
	const total = 30
	for i := 0; i < total; i++ {
		if _, _, err := p.Send([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var m2 *GroupMember
	tc.trip = func() {
		var jerr error
		if m2, jerr = g.Join("w2"); jerr != nil {
			t.Error(jerr)
		}
	}
	first, err := m1.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == nil {
		t.Fatal("the mid-poll join never ran")
	}
	// The poll straddled the rebalance: nothing from w2's partition may
	// have leaked through.
	still := make(map[int32]bool)
	for _, part := range m1.Assignment() {
		still[part] = true
	}
	seen := make(map[string]string)
	for _, msg := range first {
		if !still[msg.Partition] {
			t.Errorf("mid-poll delivery from revoked partition %d", msg.Partition)
		}
		seen[string(msg.Value)] = "w1"
	}

	// Drain both members: exactly-once across the pair.
	for _, m := range []*GroupMember{m1, m2} {
		for {
			msgs, err := m.Poll(16)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) == 0 {
				break
			}
			for _, msg := range msgs {
				v := string(msg.Value)
				if owner, dup := seen[v]; dup {
					t.Fatalf("message %q delivered to both %s and %s", v, owner, m.ID())
				}
				seen[v] = m.ID()
			}
		}
	}
	if len(seen) != total {
		t.Errorf("group delivered %d unique messages, want %d", len(seen), total)
	}
}

func TestListTopicsInProcAndTCP(t *testing.T) {
	b, s := startServer(t)
	if err := b.CreateTopic("b-topic", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("a-topic", 1); err != nil {
		t.Fatal(err)
	}

	inproc := NewInProcClient(b)
	got, err := inproc.ListTopics()
	if err != nil || len(got) != 2 || got[0] != "a-topic" {
		t.Errorf("inproc ListTopics = %v, %v", got, err)
	}

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err = c.ListTopics()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a-topic" || got[1] != "b-topic" {
		t.Errorf("tcp ListTopics = %v", got)
	}
}

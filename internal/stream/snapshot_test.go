package stream

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func populatedBroker(t *testing.T, msgs int) *Broker {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("u", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if _, _, err := b.Produce("t", int32(i%2), key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Produce("u", 0, nil, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBrokerSnapshotRoundTrip(t *testing.T) {
	b := populatedBroker(t, 10)
	snap := b.Snapshot()

	// Serialize through the JSON layer, as a disk checkpoint would.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreBroker(BrokerConfig{}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range []string{"t", "u"} {
		wantParts, _ := b.PartitionCount(topic)
		gotParts, err := restored.PartitionCount(topic)
		if err != nil || gotParts != wantParts {
			t.Fatalf("topic %q partitions = %d, %v; want %d", topic, gotParts, err, wantParts)
		}
		for p := 0; p < wantParts; p++ {
			wantHWM, _ := b.HighWaterMark(topic, int32(p))
			gotHWM, _ := restored.HighWaterMark(topic, int32(p))
			if gotHWM != wantHWM {
				t.Errorf("%q/%d HWM = %d, want %d", topic, p, gotHWM, wantHWM)
			}
			want, _ := b.Fetch(topic, int32(p), 0, 100)
			got, _ := restored.Fetch(topic, int32(p), 0, 100)
			if len(got) != len(want) {
				t.Fatalf("%q/%d has %d messages, want %d", topic, p, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i].Value, want[i].Value) || !bytes.Equal(got[i].Key, want[i].Key) {
					t.Errorf("%q/%d message %d differs", topic, p, i)
				}
				if got[i].Offset != want[i].Offset {
					t.Errorf("%q/%d message %d offset = %d, want %d", topic, p, i, got[i].Offset, want[i].Offset)
				}
			}
		}
	}

	// The restored broker keeps working: appends continue past the
	// snapshotted high watermark.
	wantHWM, _ := b.HighWaterMark("u", 0)
	if _, off, err := restored.Produce("u", 0, nil, []byte("post-restore")); err != nil || off != wantHWM {
		t.Errorf("post-restore produce offset = %d, %v; want %d", off, err, wantHWM)
	}
}

func TestBrokerSnapshotPreservesTruncatedBase(t *testing.T) {
	b := NewBroker(BrokerConfig{MaxRetainedPerPartition: 8})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := b.Produce("t", 0, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := b.Snapshot()
	restored, err := RestoreBroker(BrokerConfig{MaxRetainedPerPartition: 8}, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Reading from offset 0 must resume at the truncated base, exactly
	// like the original broker.
	want, _ := b.Fetch("t", 0, 0, 100)
	got, _ := restored.Fetch("t", 0, 0, 100)
	if len(got) != len(want) || got[0].Offset != want[0].Offset {
		t.Errorf("restored log: %d msgs from offset %d; want %d from %d",
			len(got), got[0].Offset, len(want), want[0].Offset)
	}
}

func TestRestoreBrokerRejectsBadSnapshots(t *testing.T) {
	if _, err := RestoreBroker(BrokerConfig{}, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := RestoreBroker(BrokerConfig{}, &BrokerSnapshot{Version: 99}); err == nil {
		t.Error("future version accepted")
	}
}

func TestGroupSnapshotRestore(t *testing.T) {
	b := populatedBroker(t, 10)
	client := NewInProcClient(b)
	g, err := NewGroup(client, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Join("w1")
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Poll(4)
	if err != nil || len(first) != 4 {
		t.Fatalf("poll = %d msgs, %v", len(first), err)
	}
	snap := g.Snapshot()

	// Crash: rebuild broker from snapshot, rebuild group from snapshot;
	// the restored member resumes past what the old one committed.
	restoredBroker, err := RestoreBroker(BrokerConfig{}, b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RestoreGroup(NewInProcClient(restoredBroker), snap)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Generation() != g.Generation() {
		t.Errorf("generation = %d, want %d", g2.Generation(), g.Generation())
	}
	m2, err := g2.Member("w1")
	if err != nil {
		t.Fatal(err)
	}
	rest, err := m2.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, msg := range first {
		seen[msg.Offset*10+int64(msg.Partition)] = true
	}
	for _, msg := range rest {
		if seen[msg.Offset*10+int64(msg.Partition)] {
			t.Errorf("message %d/%d delivered twice across restart", msg.Partition, msg.Offset)
		}
	}
	if len(first)+len(rest) != 10 {
		t.Errorf("delivered %d total, want 10", len(first)+len(rest))
	}

	if _, err := g2.Member("ghost"); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("Member(ghost) err = %v, want ErrUnknownMember", err)
	}
}

func TestGroupRestoreRejectsPartitionMismatch(t *testing.T) {
	b := populatedBroker(t, 2)
	client := NewInProcClient(b)
	_, err := RestoreGroup(client, GroupSnapshot{Topic: "t", Offsets: []int64{1, 2, 3}})
	if err == nil {
		t.Error("offset/partition mismatch accepted")
	}
}

func TestConsumerSetOffsets(t *testing.T) {
	b := populatedBroker(t, 6)
	c, err := NewConsumer(NewInProcClient(b), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll(100); err != nil {
		t.Fatal(err)
	}
	saved := c.Offsets()

	c2, err := NewConsumer(NewInProcClient(b), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetOffsets(saved); err != nil {
		t.Fatal(err)
	}
	msgs, err := c2.Poll(100)
	if err != nil || len(msgs) != 0 {
		t.Errorf("restored consumer re-read %d messages, want 0 (err %v)", len(msgs), err)
	}
	if err := c2.SetOffsets([]int64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestReviveAllocsPerChunk pins what a revival costs the allocator: the
// new broker is a copy of a live peer's chunks, so it allocates per chunk
// and per partition, not per retained record (a snapshot and its restore
// copied every key and value out and in again).
func TestReviveAllocsPerChunk(t *testing.T) {
	const retained, partitions = 2048, 3
	bcfg := BrokerConfig{MaxRetainedPerPartition: retained}
	rs, err := NewReplicaSet(ReplicaSetConfig{Rebuild: bcfg},
		Replica{ID: "r0", Broker: NewBroker(bcfg)},
		Replica{ID: "r1", Broker: NewBroker(bcfg)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTopic(TopicInData, partitions); err != nil {
		t.Fatal(err)
	}
	key, value := []byte("car-42"), make([]byte, 200)
	for i := 0; i < partitions*retained; i++ {
		if _, _, err := rs.Produce(TopicInData, int32(i%partitions), key, value, AckAll); err != nil {
			t.Fatal(err)
		}
	}
	src, _, err := rs.BrokerFor("r0")
	if err != nil {
		t.Fatal(err)
	}
	chunks, records := 0, 0
	for _, pl := range src.topics[TopicInData].partitions {
		chunks += len(pl.chunks)
		records += len(pl.index)
	}
	if records < partitions*retained/2 {
		t.Fatalf("source retains %d records: too few to tell chunks from records", records)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := rs.Kill("r1"); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Revive("r1"); err != nil {
			t.Fatal(err)
		}
	})
	// A chunk apiece, an index and a chunk list per partition, and the
	// broker, topic and role tables around them.
	if limit := float64(chunks + 8*partitions + 32); allocs > limit {
		t.Errorf("reviving a replica of %d records in %d chunks: %v allocs, want <= %v", records, chunks, allocs, limit)
	}
	revived, _, _ := rs.BrokerFor("r1")
	for p := int32(0); p < partitions; p++ {
		want, _ := src.Fetch(TopicInData, p, 0, retained)
		got, _ := revived.Fetch(TopicInData, p, 0, retained)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("partition %d: revived replica holds %d records, source %d", p, len(got), len(want))
		}
		for i := range got {
			if !sameMessage(got[i], want[i]) {
				t.Fatalf("partition %d: record %d differs on the revived replica", p, i)
			}
		}
	}
}

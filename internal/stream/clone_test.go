package stream

import "testing"

// TestReviveAllocsPerChunk pins what a revival costs the allocator: the
// new broker is a copy of a live peer's chunks, so it allocates per chunk
// and per partition, not per retained record.
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

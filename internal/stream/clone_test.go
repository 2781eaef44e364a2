package stream

import (
	"errors"
	"runtime"
	"testing"
)

// reviveTestSet is a two-replica set whose replicas retain up to retained
// records a partition, with partitions*records 200 B records produced at
// acks=all into IN-DATA.
func reviveTestSet(t *testing.T, retained, partitions, records int) *ReplicaSet {
	t.Helper()
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
	produceInto(t, rs, TopicInData, partitions, partitions*records)
	return rs
}

// produceInto produces n keyed 200 B records over a topic's partitions.
func produceInto(t *testing.T, rs *ReplicaSet, topicName string, partitions, n int) {
	t.Helper()
	key, value := []byte("car-42"), make([]byte, 200)
	for i := 0; i < n; i++ {
		value[0] = byte(i)
		if _, _, err := rs.Produce(topicName, int32(i%partitions), key, value, AckAll); err != nil {
			t.Fatal(err)
		}
	}
}

func killRevive(t *testing.T, rs *ReplicaSet, id string) {
	t.Helper()
	if err := rs.Kill(id); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Revive(id); err != nil {
		t.Fatal(err)
	}
}

// requireRevivedMatches holds every partition of a topic on the revived
// replica to the source's, record by record, and its chunks to its own.
func requireRevivedMatches(t *testing.T, rs *ReplicaSet, topicName string, partitions int) {
	t.Helper()
	src, _, _ := rs.BrokerFor("r0")
	revived, _, _ := rs.BrokerFor("r1")
	for p := int32(0); p < int32(partitions); p++ {
		want, _ := src.Fetch(topicName, p, 0, 1<<20)
		got, _ := revived.Fetch(topicName, p, 0, 1<<20)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s/%d: revived replica holds %d records, source %d", topicName, p, len(got), len(want))
		}
		for i := range got {
			if !sameMessage(got[i], want[i]) {
				t.Fatalf("%s/%d: record %d differs on the revived replica", topicName, p, i)
			}
		}
		s, c := src.topics[topicName].partitions[p], revived.topics[topicName].partitions[p]
		requireDistinctChunks(t, topicName, s, c)
	}
}

// TestReviveRecyclesDeadStorage pins what a revival costs the allocator
// once the set has revived before: the new broker's chunks, indexes and
// chunk tables are the dead broker's, so a Kill and Revive allocate the
// broker, topic and role tables around them and no chunk, however many
// chunks the logs hold. The dead broker is left closed and empty at its
// old high watermarks.
func TestReviveRecyclesDeadStorage(t *testing.T) {
	const retained, partitions = 2048, 3
	rs := reviveTestSet(t, retained, partitions, retained)
	src, _, _ := rs.BrokerFor("r0")
	chunks, records := 0, 0
	for _, pl := range src.topics[TopicInData].partitions {
		chunks += len(pl.chunks)
		records += len(pl.index)
	}
	if records < partitions*retained/2 || chunks < 2*partitions {
		t.Fatalf("source retains %d records in %d chunks: too few to tell chunks from records", records, chunks)
	}
	killRevive(t, rs, "r1") // the first donor's arrays grow to the source's size

	allocs := testing.AllocsPerRun(5, func() { killRevive(t, rs, "r1") })
	if limit := float64(8*partitions + 32); allocs > limit {
		t.Errorf("reviving a replica of %d records in %d chunks: %v allocs, want <= %v", records, chunks, allocs, limit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	killRevive(t, rs, "r1")
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= logChunkSize {
		t.Errorf("reviving a replica of %d chunks allocated %d B, want < one %d B chunk", chunks, grew, logChunkSize)
	}
	requireRevivedMatches(t, rs, TopicInData, partitions)

	dead, _, _ := rs.BrokerFor("r1")
	hwms := make([]int64, partitions)
	for p := range hwms {
		hwms[p], _ = dead.HighWaterMark(TopicInData, int32(p))
	}
	killRevive(t, rs, "r1")
	if _, _, err := dead.Produce(TopicInData, 0, nil, []byte("late")); !errors.Is(err, ErrBrokerClosed) {
		t.Errorf("produce to the donor: %v, want %v", err, ErrBrokerClosed)
	}
	if _, err := dead.Fetch(TopicInData, 0, 0, 10); !errors.Is(err, ErrBrokerClosed) {
		t.Errorf("fetch from the donor: %v, want %v", err, ErrBrokerClosed)
	}
	for p, pl := range dead.topics[TopicInData].partitions {
		if hwm, _ := dead.HighWaterMark(TopicInData, int32(p)); hwm != hwms[p] {
			t.Errorf("donor partition %d: high watermark %d after the revive, %d before", p, hwm, hwms[p])
		}
		if len(pl.index) != 0 || len(pl.chunks) != 0 || len(pl.spare) != 0 {
			t.Errorf("donor partition %d still holds %d records, %d chunks, %d spares", p, len(pl.index), len(pl.chunks), len(pl.spare))
		}
	}
	requireRevivedMatches(t, rs, TopicInData, partitions)
}

// TestReviveTopicCreatedWhileDead revives a replica that missed a topic's
// creation: the donor has nothing for it, so the clone allocates its logs.
func TestReviveTopicCreatedWhileDead(t *testing.T) {
	const partitions = 2
	rs := reviveTestSet(t, 1024, partitions, 700)
	if err := rs.Kill("r1"); err != nil {
		t.Fatal(err)
	}
	rs.Tick() // r0 takes over r1's partitions
	if err := rs.CreateTopic(TopicOutData, partitions); err != nil {
		t.Fatal(err)
	}
	rs.Tick() // the new topic's partitions elect past the dead replica too
	produceInto(t, rs, TopicOutData, partitions, partitions*700)
	if _, err := rs.Revive("r1"); err != nil {
		t.Fatal(err)
	}
	requireRevivedMatches(t, rs, TopicInData, partitions)
	requireRevivedMatches(t, rs, TopicOutData, partitions)
}

// TestReviveSourceOutgrewDonor revives a replica whose live peer took
// more records while it was dead than the donor has chunks for: the
// donor's chunks hold what they can and the rest are allocated.
func TestReviveSourceOutgrewDonor(t *testing.T) {
	const partitions = 2
	rs := reviveTestSet(t, 4096, partitions, 300)
	dead, _, _ := rs.BrokerFor("r1")
	donorChunks := len(dead.topics[TopicInData].partitions[0].chunks)
	if err := rs.Kill("r1"); err != nil {
		t.Fatal(err)
	}
	rs.Tick() // r0 takes over r1's partitions
	produceInto(t, rs, TopicInData, partitions, partitions*3000)
	if _, err := rs.Revive("r1"); err != nil {
		t.Fatal(err)
	}
	src, _, _ := rs.BrokerFor("r0")
	if n := len(src.topics[TopicInData].partitions[0].chunks); n <= donorChunks+1 {
		t.Fatalf("source holds %d chunks, donor had %d: the source did not outgrow it", n, donorChunks)
	}
	requireRevivedMatches(t, rs, TopicInData, partitions)
	rs.Tick()                                                    // back into the ISR
	produceInto(t, rs, TopicInData, partitions, partitions*3000) // through retention on both
	requireRevivedMatches(t, rs, TopicInData, partitions)
}

package stream

// Follower reads: replica-aware consumer fetch. The leader broker is
// the only member that accepts produces, but any in-sync replica holds
// every committed record, so consumers can fan their fetches out across
// the ISR instead of all hammering the leader — Kafka's KIP-392. The
// correctness rule is the high-watermark clamp: a follower may hold
// records the leader has appended but not yet fully replicated (or,
// during an AckLeader window, the reverse — the leader holds records no
// follower has), and none of those are committed. A follower read must
// never return a record past the committed offset, defined here as the
// minimum high watermark across live ISR members; otherwise a consumer
// could observe a record that a subsequent clean election erases.

import (
	"fmt"
)

// CommittedOffset reports a partition's committed offset: the minimum
// high watermark across live in-sync members. Records below it survive
// any clean election; follower reads are clamped to it.
func (rs *ReplicaSet) CommittedOffset(topicName string, partition int32) (int64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ps, err := rs.partLocked(topicName, partition)
	if err != nil {
		return 0, err
	}
	return rs.committedLocked(topicName, partition, ps, -1)
}

// partLocked resolves a (topic, partition) to its control-plane state.
func (rs *ReplicaSet) partLocked(topicName string, partition int32) (*partState, error) {
	t, ok := rs.topics[topicName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if partition < 0 || int(partition) >= len(t.parts) {
		return nil, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}
	return &t.parts[partition], nil
}

// committedLocked computes the min HWM over live ISR members. A member
// whose broker cannot answer (closed under us) is skipped; a partition
// with no live in-sync member has nothing committed to serve. A read at
// offset past needs no more than that nothing past it is committed, so
// the first member whose HWM is at or below past ends the walk with that
// HWM: the minimum can only be lower. An empty poll then reads one HWM,
// not every member's. past -1 asks for the minimum itself.
func (rs *ReplicaSet) committedLocked(topicName string, partition int32, ps *partState, past int64) (int64, error) {
	committed, seen := int64(0), false
	for i, r := range rs.replicas {
		if !r.alive || !ps.isr[i] {
			continue
		}
		hwm, err := r.Broker.HighWaterMark(topicName, partition)
		if err != nil {
			continue
		}
		if hwm <= past {
			return hwm, nil
		}
		if !seen || hwm < committed {
			committed, seen = hwm, true
		}
	}
	if !seen {
		return 0, &notLeaderError{hint: DefaultLeaderRetryHint}
	}
	return committed, nil
}

// FetchCommitted reads from a live in-sync replica, preferring
// followers over the leader (round-robin across the eligible members),
// clamped so no returned record's offset reaches the committed offset
// boundary's far side: offset+count <= committed, always. During an
// AckLeader window the leader is ahead of the committed offset and a
// follower read simply does not see the uncommitted suffix yet; the
// next Tick (or an AckAll produce) advances the committed offset and
// the records appear. Because every ISR member holds all committed
// records, the clamped read is identical no matter which member serves
// it.
func (rs *ReplicaSet) FetchCommitted(topicName string, partition int32, offset int64, max int) ([]Message, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	b, max, err := rs.committedReaderLocked(topicName, partition, offset, max)
	if b == nil {
		return nil, err
	}
	return b.Fetch(topicName, partition, offset, max)
}

// fetchCommittedEachLocked is FetchCommitted lending instead of cloning;
// what ReplicaSet.fetchEach says of fn holds here too.
func (rs *ReplicaSet) fetchCommittedEachLocked(topicName string, partition int32, offset int64, max int, fn func(Message)) (int, error) {
	b, max, err := rs.committedReaderLocked(topicName, partition, offset, max)
	if b == nil {
		return 0, err
	}
	return b.FetchEach(topicName, partition, offset, max, fn)
}

// committedReaderLocked is the committed-read clamp: it picks the member
// that serves a read of up to max records at offset and cuts max back to
// the committed offset. A nil broker means there is nothing to read, for
// the reason given or, with none, because nothing past offset is
// committed yet.
func (rs *ReplicaSet) committedReaderLocked(topicName string, partition int32, offset int64, max int) (*Broker, int, error) {
	ps, err := rs.partLocked(topicName, partition)
	if err != nil {
		return nil, 0, err
	}
	committed, err := rs.committedLocked(topicName, partition, ps, offset)
	if err != nil {
		return nil, 0, err
	}
	if offset >= committed {
		return nil, 0, nil // nothing committed past the consumer's position
	}
	if span := committed - offset; int64(max) > span {
		max = int(span)
		if rs.mFollowerClamped != nil {
			rs.mFollowerClamped.Inc()
		}
	}
	server := rs.pickReaderLocked(ps)
	if rs.mFollowerFetches != nil && server != ps.leader {
		rs.mFollowerFetches.Inc()
	}
	return rs.replicas[server].Broker, max, nil
}

// pickReaderLocked rotates over live in-sync followers; only an ISR of
// one (the leader alone) falls back to the leader.
//
//cad3:noalloc
func (rs *ReplicaSet) pickReaderLocked(ps *partState) int {
	eligible := 0
	for i, r := range rs.replicas {
		if r.alive && ps.isr[i] && i != ps.leader {
			eligible++
		}
	}
	if eligible == 0 {
		return ps.leader
	}
	rs.readRR++
	// The readRR-th eligible follower in replica order, counted in a second
	// pass instead of collected into a slice.
	skip := rs.readRR % uint64(eligible)
	for i, r := range rs.replicas {
		if r.alive && ps.isr[i] && i != ps.leader {
			if skip == 0 {
				return i
			}
			skip--
		}
	}
	return ps.leader
}

// followerReadClient is a ReplicatedClient whose fetches go to in-sync
// followers with the HWM clamp instead of the partition leader.
type followerReadClient struct {
	ReplicatedClient
}

// ReadClient returns a Client view of the set whose fetches are served
// by in-sync followers (committed records only), spreading consumer
// read load off the partition leaders. Produces still route to leaders
// at the given ack level.
func (rs *ReplicaSet) ReadClient(acks AckLevel) Client {
	return &followerReadClient{ReplicatedClient{rs: rs, acks: acks}}
}

// FetchEach implements Client by lending the committed reads, all of
// them under one hold of the set's lock (fn may not call back into the
// client, so nothing it does can wait for that lock). The embedded
// client has a FetchEach of its own, which lends the leader's log —
// uncommitted suffix included — so this one must exist whenever that one
// does.
func (c *followerReadClient) FetchEach(topic string, reads []PartitionRead, max int, fn func(Message)) int {
	rs := c.rs
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return FetchInTurn(reads, max, func(one []PartitionRead, max int) (n int) {
		n, one[0].Err = rs.fetchCommittedEachLocked(topic, one[0].Partition, one[0].Offset, max, fn)
		return n
	})
}

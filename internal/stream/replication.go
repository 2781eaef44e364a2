package stream

// Per-partition leader/follower replication: the broker-side half of the
// replicated cluster (see DESIGN.md §13). Each (topic, partition) carries
// a replication role — leader or follower — and a fencing epoch. Clients
// may only produce to the leader; followers answer ErrNotLeader with a
// hint naming the current leader, which RetryClient follows. Leaders ship
// their log suffix to followers with ReplicaAppend, which enforces two
// invariants:
//
//   - epoch fencing: an append claiming an epoch older than the
//     partition's current one is a deposed leader replaying buffered
//     frames, and every record of it is rejected with ErrFencedEpoch;
//   - log contiguity: an append must start exactly at the follower's high
//     watermark. Starting below it is a benign overlap (the duplicate
//     prefix is skipped — replication is idempotent); starting above it
//     is ErrOffsetGap: the follower is missing records. An acks=all push
//     that gets it falls back to catch-up from the follower's high
//     watermark; catch-up that still gets it means the follower must be
//     rebuilt as a clone of a live replica (ReplicaSet.Revive) before it
//     can tail the log.
//
// A broker that never hears about replication (no SetPartitionRole call)
// leads every partition at epoch 0, so standalone deployments are
// unchanged.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Replication errors, matched with errors.Is.
var (
	// ErrNotLeader rejects a produce addressed to a follower partition.
	// The concrete error usually carries a leader hint (LeaderHint) and a
	// retry-after estimate (flow.RetryAfter) covering election settle
	// time.
	ErrNotLeader = errors.New("stream: not partition leader")
	// ErrFencedEpoch rejects a replica append (or role change) carrying a
	// stale leadership epoch — the sender was deposed.
	ErrFencedEpoch = errors.New("stream: fenced: stale leader epoch")
	// ErrOffsetGap rejects a replica append that starts past the
	// follower's high watermark: the follower missed a range and must
	// catch up from the leader's log, or, once that range has left the
	// leader's retention window, be rebuilt by ReplicaSet.Revive.
	ErrOffsetGap = errors.New("stream: replica offset gap")
)

// DefaultLeaderRetryHint is the retry-after estimate attached to
// ErrNotLeader refusals: roughly one election settle interval, so
// failed-over producers back off past the leadership change instead of
// hammering the deposed follower.
const DefaultLeaderRetryHint = 20 * time.Millisecond

// notLeaderError is the concrete ErrNotLeader: it names the current
// leader (when known) and carries a retry-after hint. The Error text is
// parsed back by remoteError, so the leader hint survives the wire.
type notLeaderError struct {
	leader string
	hint   time.Duration
}

func (e *notLeaderError) Error() string {
	if e.leader == "" {
		return ErrNotLeader.Error()
	}
	return ErrNotLeader.Error() + " leader=" + e.leader
}

func (e *notLeaderError) Is(target error) bool      { return target == ErrNotLeader }
func (e *notLeaderError) Leader() string            { return e.leader }
func (e *notLeaderError) RetryAfter() time.Duration { return e.hint }

// LeaderHint extracts the new-leader address from an ErrNotLeader (ok is
// false when the error carries no hint). RetryClient uses it to redial
// the leader instead of the deposed follower.
func LeaderHint(err error) (string, bool) {
	for err != nil {
		if nl, ok := err.(interface{ Leader() string }); ok {
			return nl.Leader(), nl.Leader() != ""
		}
		err = errors.Unwrap(err)
	}
	return "", false
}

// parseNotLeader reconstructs a notLeaderError from its wire rendering
// ("stream: not partition leader leader=<addr> retry-after-us=<n>").
func parseNotLeader(msg string) *notLeaderError {
	e := &notLeaderError{}
	for _, tok := range strings.Fields(msg) {
		if v, ok := strings.CutPrefix(tok, "leader="); ok {
			e.leader = v
		}
		if v, ok := strings.CutPrefix(tok, "retry-after-us="); ok {
			if us, err := strconv.ParseInt(v, 10, 64); err == nil {
				e.hint = time.Duration(us) * time.Microsecond
			}
		}
	}
	return e
}

// AckLevel selects how many replicas must hold a record before Produce
// acknowledges it, mirroring Kafka's acks setting. The zero value is
// AckLeader.
type AckLevel int8

const (
	// AckLeader (acks=1, the default): the partition leader appended the
	// record. A leader lost before replicating it loses the record.
	AckLeader AckLevel = iota
	// AckNone (acks=0): fire-and-forget. The record is sent with no
	// durability claim at all.
	AckNone
	// AckAll (acks=all): every in-sync replica holds the record before
	// the produce returns. Leader loss cannot lose an acked record —
	// elections only promote ISR members.
	AckAll
)

// String renders the Kafka-style setting name.
func (a AckLevel) String() string {
	switch a {
	case AckNone:
		return "0"
	case AckAll:
		return "all"
	default:
		return "1"
	}
}

// partRole is one partition's replication role on this broker.
type partRole struct {
	follower bool
	epoch    int64
	leader   string // hint handed to refused producers
}

// ReplicaRecord is one record of a replica append: the leader's payload
// plus its original append timestamp, so follower retention decisions
// match the leader's.
type ReplicaRecord struct {
	Key          []byte
	Value        []byte
	AppendedAtNs int64
}

// ReplicaLink is the transport a replication controller uses to reach
// one replica: in-process it is the *Broker itself, across machines a
// *TCPClient, and chaos tests interpose a fault-injecting wrapper.
type ReplicaLink interface {
	ReplicaAppend(topicName string, partition int32, epoch, base int64, recs []ReplicaRecord) (int64, error)
	SetPartitionRole(topicName string, partition int32, follower bool, epoch int64, leaderHint string) error
}

var (
	_ ReplicaLink = (*Broker)(nil)
	_ ReplicaLink = (*TCPClient)(nil)
)

// SetPartitionRole installs a partition's replication role: follower or
// leader, the leadership epoch, and the leader hint refused producers
// receive. A role change carrying an epoch older than the current one is
// a deposed controller and is fenced.
func (b *Broker) SetPartitionRole(topicName string, partition int32, follower bool, epoch int64, leaderHint string) error {
	b.mu.RLock()
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if partition < 0 || int(partition) >= len(t.partitions) {
		return fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}
	b.roleMu.Lock()
	defer b.roleMu.Unlock()
	m, ok := b.roles[topicName]
	if !ok {
		m = make(map[int32]partRole)
		b.roles[topicName] = m
	}
	if cur, ok := m[partition]; ok && epoch < cur.epoch {
		return fmt.Errorf("%w: %q/%d at epoch %d, role change claims %d",
			ErrFencedEpoch, topicName, partition, cur.epoch, epoch)
	}
	m[partition] = partRole{follower: follower, epoch: epoch, leader: leaderHint}
	return nil
}

// leaderCheck refuses produces addressed to follower partitions with the
// current leader hint.
func (b *Broker) leaderCheck(topicName string, partition int32) error {
	b.roleMu.RLock()
	r := b.roles[topicName][partition]
	b.roleMu.RUnlock()
	if !r.follower {
		return nil
	}
	return &notLeaderError{leader: r.leader, hint: DefaultLeaderRetryHint}
}

// ReplicaAppend appends a leader's log suffix to a follower partition,
// enforcing epoch fencing and log contiguity (see the package comment
// above). base is the offset of recs[0] on the leader. The overlap with
// what the follower already holds is skipped, making retried replication
// idempotent. It returns the follower's new high watermark.
//
// An append claiming a NEWER epoch than the follower knows is the first
// contact from a freshly elected leader whose role push raced the data
// path: the follower adopts the new epoch (and follower role), exactly
// like a Kafka replica learning leadership from the fetch response.
func (b *Broker) ReplicaAppend(topicName string, partition int32, epoch, base int64, recs []ReplicaRecord) (int64, error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, ErrBrokerClosed
	}
	t, ok := b.topics[topicName]
	b.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	if partition < 0 || int(partition) >= len(t.partitions) {
		return 0, fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
	}

	b.roleMu.Lock()
	m, ok := b.roles[topicName]
	if !ok {
		m = make(map[int32]partRole)
		b.roles[topicName] = m
	}
	cur := m[partition]
	if epoch < cur.epoch {
		b.roleMu.Unlock()
		if b.mReplFenced != nil {
			b.mReplFenced.Add(int64(len(recs)))
		}
		return 0, fmt.Errorf("%w: %q/%d at epoch %d, append claims %d",
			ErrFencedEpoch, topicName, partition, cur.epoch, epoch)
	}
	if epoch > cur.epoch {
		m[partition] = partRole{follower: true, epoch: epoch, leader: cur.leader}
	}
	b.roleMu.Unlock()

	hwm, appended, err := t.partitions[partition].appendReplica(base, recs)
	if err != nil {
		return 0, fmt.Errorf("%w: %q/%d", err, topicName, partition)
	}
	if appended > 0 && b.mReplRecords != nil {
		b.mReplRecords.Add(int64(appended))
	}
	return hwm, nil
}

// appendReplica installs a leader log suffix starting at base, skipping
// the already-held overlap and preserving the leader's offsets, bytes and
// append timestamps (retention parity) — nothing is stamped here.
// Replicated records enter a flow-controlled partition as credit debt,
// like a cloned backlog — replication is never shed, the leader already
// admitted the records. Retention runs after every record, at that
// record's timestamp, so a suffix shipped whole leaves the log exactly as
// the same records shipped one append apiece leave it.
func (l *partitionLog) appendReplica(base int64, recs []ReplicaRecord) (hwm int64, appended int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.base + int64(len(l.index))
	if base > cur {
		return cur, 0, ErrOffsetGap
	}
	skip := int(cur - base)
	if skip >= len(recs) {
		return cur, 0, nil // fully duplicate: idempotent no-op
	}
	recs = recs[skip:]
	for i := range recs {
		l.storeLocked(recs[i].Key, recs[i].Value, recs[i].AppendedAtNs)
		if l.gate != nil {
			l.gate.Acquire(1)
		}
		for len(l.index) > l.maxRetained {
			l.dropLocked(len(l.index) / 2)
		}
	}
	return l.base + int64(len(l.index)), len(recs), nil
}

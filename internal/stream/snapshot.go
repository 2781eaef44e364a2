package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Broker crash recovery: a snapshot captures every topic's partition
// logs (retained messages plus their base offsets) so a crashed broker
// can be rebuilt without losing the offsets consumers hold — messages
// produced after the snapshot are lost, exactly the at-most-once window
// a periodic-checkpoint deployment accepts. Snapshots serialize to JSON
// ([]byte fields ride base64), so they can live on disk across process
// restarts.

// SnapshotVersion guards the serialized layout.
const SnapshotVersion = 1

// MessageSnapshot is one retained message.
type MessageSnapshot struct {
	Key          []byte `json:"k,omitempty"`
	Value        []byte `json:"v"`
	AppendedAtNs int64  `json:"atNs"`
}

// PartitionSnapshot is one partition log: its base offset and retained
// messages (offsets are implicit: Base+i).
type PartitionSnapshot struct {
	Base     int64             `json:"base"`
	Messages []MessageSnapshot `json:"msgs"`
}

// TopicSnapshot is one topic's partitions.
type TopicSnapshot struct {
	Name       string              `json:"name"`
	Partitions []PartitionSnapshot `json:"partitions"`
}

// BrokerSnapshot is a point-in-time copy of a broker's full state.
type BrokerSnapshot struct {
	Version   int             `json:"version"`
	TakenAtMs int64           `json:"takenAtMs"`
	Topics    []TopicSnapshot `json:"topics"`
}

// Snapshot captures the broker's topics and retained messages. The copy
// is deep: the snapshot stays valid however long the broker keeps
// running (or however quickly it crashes).
func (b *Broker) Snapshot() *BrokerSnapshot {
	snap := &BrokerSnapshot{Version: SnapshotVersion, TakenAtMs: b.now().UnixMilli()}
	for _, t := range b.topicsByName() {
		ts := TopicSnapshot{Name: t.name, Partitions: make([]PartitionSnapshot, len(t.partitions))}
		for p, pl := range t.partitions {
			ts.Partitions[p] = pl.snapshot()
		}
		snap.Topics = append(snap.Topics, ts)
	}
	return snap
}

// snapshot deep-copies one partition log.
func (l *partitionLog) snapshot() PartitionSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	ps := PartitionSnapshot{Base: l.base, Messages: make([]MessageSnapshot, len(l.index))}
	for i, e := range l.index {
		k, v := l.viewLocked(e)
		ps.Messages[i] = MessageSnapshot{
			Key:          append([]byte(nil), k...),
			Value:        append([]byte(nil), v...),
			AppendedAtNs: e.at,
		}
	}
	return ps
}

// RestoreBroker builds a fresh broker from a snapshot: same topics, same
// partition counts, same retained messages at the same offsets, so
// consumers resume from their committed offsets without rewinding past
// the snapshot point.
func RestoreBroker(cfg BrokerConfig, snap *BrokerSnapshot) (*Broker, error) {
	if snap == nil {
		return nil, fmt.Errorf("stream: nil broker snapshot")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("stream: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	b := NewBroker(cfg)
	for _, ts := range snap.Topics {
		if err := b.CreateTopic(ts.Name, len(ts.Partitions)); err != nil {
			return nil, fmt.Errorf("restore topic %q: %w", ts.Name, err)
		}
		t := b.topics[ts.Name]
		for p, ps := range ts.Partitions {
			pl := t.partitions[p]
			pl.mu.Lock()
			pl.base = ps.Base
			for _, ms := range ps.Messages {
				pl.storeLocked(ms.Key, ms.Value, ms.AppendedAtNs)
			}
			// A flow-controlled restore re-seats the restored backlog as
			// gate occupancy: the messages were admitted before the crash,
			// so they re-enter as credit debt, not via re-admission.
			if pl.gate != nil {
				pl.credited = ps.Base
				pl.gate.Acquire(int64(len(ps.Messages)))
			}
			pl.mu.Unlock()
		}
	}
	return b, nil
}

// cloneBroker builds a fresh broker holding what src holds now: the same
// topics and partition counts, the same retained records at the same
// offsets with the same append times. It is RestoreBroker(cfg,
// src.Snapshot()) for a copy that never leaves the process — what Revive
// needs — made by copying each log's chunks whole instead of each record
// out and in again; it also keeps an empty key or value apart from a nil
// one, which a snapshot does not. Roles and down marks are not copied.
func cloneBroker(cfg BrokerConfig, src *Broker) (*Broker, error) {
	b := NewBroker(cfg)
	for _, st := range src.topicsByName() {
		if err := b.CreateTopic(st.name, len(st.partitions)); err != nil {
			return nil, fmt.Errorf("clone topic %q: %w", st.name, err)
		}
		for p, pl := range b.topics[st.name].partitions {
			pl.cloneFrom(st.partitions[p])
		}
	}
	return b, nil
}

// topicsByName returns the broker's topics in name order.
func (b *Broker) topicsByName() []*topic {
	b.mu.RLock()
	defer b.mu.RUnlock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	sort.Slice(topics, func(i, j int) bool { return topics[i].name < topics[j].name })
	return topics
}

// cloneFrom fills an empty log nobody else can reach yet with what src
// holds, under src's lock: the index as it is and a copy of every live
// chunk — one allocation a chunk, standard chunks at their full capacity
// so that the tail takes the next appends and retention can reuse them.
// The retention bounds stay the clone's own and are not applied, and the
// backlog enters the clone's gate as credit debt, as in RestoreBroker.
func (l *partitionLog) cloneFrom(src *partitionLog) {
	src.mu.Lock()
	defer src.mu.Unlock()
	l.base = src.base
	l.index = slices.Clone(src.index)
	l.firstChunk = src.firstChunk
	l.chunks = make([][]byte, len(src.chunks))
	for i, c := range src.chunks {
		l.chunks[i] = append(make([]byte, 0, cap(c)), c...)
	}
	if l.gate != nil {
		l.credited = l.base
		l.gate.Acquire(int64(len(l.index)))
	}
}

// WriteSnapshot serializes a snapshot as JSON.
func WriteSnapshot(w io.Writer, snap *BrokerSnapshot) error {
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("stream: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*BrokerSnapshot, error) {
	var snap BrokerSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("stream: read snapshot: %w", err)
	}
	return &snap, nil
}

// GroupSnapshot captures a consumer group's committed offsets and
// membership, so a restarted node's group resumes exactly where the
// crashed one left off (at-least-once: in-flight uncommitted messages
// are re-read).
type GroupSnapshot struct {
	Topic      string   `json:"topic"`
	Offsets    []int64  `json:"offsets"`
	Members    []string `json:"members"`
	Generation int64    `json:"generation"`
}

// Snapshot captures the group's committed state.
func (g *Group) Snapshot() GroupSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := GroupSnapshot{Topic: g.topic, Generation: g.generation}
	snap.Offsets = append(snap.Offsets, g.offsets...)
	snap.Members = append(snap.Members, g.members...)
	return snap
}

// RestoreGroup rebuilds a group against a (possibly restarted) broker
// from its snapshot. The topic must exist with at least the snapshotted
// partition count: partitions added since the snapshot resume from the
// earliest offset (a grown topic re-reads nothing it already committed,
// and reads the new partitions from their start), while a topic that
// shrank below the snapshot is an error — committed offsets would
// silently vanish.
func RestoreGroup(client Client, snap GroupSnapshot) (*Group, error) {
	g, err := NewGroup(client, snap.Topic, 0)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(snap.Offsets) > g.partitions {
		return nil, fmt.Errorf("stream: group snapshot has %d offsets, topic %q has %d partitions",
			len(snap.Offsets), snap.Topic, g.partitions)
	}
	copy(g.offsets, snap.Offsets)
	g.members = append(g.members[:0], snap.Members...)
	g.generation = snap.Generation
	return g, nil
}

// Member returns the handle of an existing member (after RestoreGroup,
// which re-seats the snapshotted membership without bumping the
// generation). Unknown ids get ErrUnknownMember.
func (g *Group) Member(id string) (*GroupMember, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m == id {
			return &GroupMember{group: g, id: id}, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownMember, id)
}

// SetOffsets positions a consumer's per-partition offsets (checkpoint
// restore). The length must match the partition count.
//
// The reposition serializes behind the consumer mutex — the same mutex
// PollInto holds for its entire fetch loop — so a concurrent poll either
// completes wholly before the restore or starts wholly after it; it can
// never observe half-restored offsets. The round-robin cursor resets
// with the offsets, keeping the first post-restore poll deterministic.
func (c *Consumer) SetOffsets(offsets []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(offsets) != len(c.offsets) {
		return fmt.Errorf("stream: %d offsets for %d partitions of %q",
			len(offsets), len(c.offsets), c.topic)
	}
	copy(c.offsets, offsets)
	c.next = 0
	return nil
}

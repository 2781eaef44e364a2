package stream

import (
	"errors"
	"fmt"
	"sync"

	"cad3/internal/obsv"
)

// Group errors.
var (
	ErrMemberExists  = errors.New("stream: group member already exists")
	ErrUnknownMember = errors.New("stream: unknown group member")
)

// Group coordinates a set of consumers sharing one topic: the topic's
// partitions are divided round-robin among members, each message is
// delivered to exactly one member, and joins/leaves rebalance the
// assignment. Offsets are owned by the group, so work resumes where the
// previous assignee left off — the client-side analogue of Kafka consumer
// groups, sufficient for scaling an RSU's ingestion across workers.
//
// Every rebalance bumps a generation number. A poll that straddles a
// rebalance delivers only the messages from partitions the member still
// owns; fetches from revoked partitions are discarded uncommitted so the
// new assignee re-reads them (at-least-once, never double-delivered, never
// skipped).
type Group struct {
	client Client
	topic  string

	mu         sync.Mutex
	partitions int
	offsets    []int64
	members    []string // join order
	generation int64

	mGenerations *obsv.Counter
}

// GroupConfig configures a Group.
type GroupConfig struct {
	Client      Client
	Topic       string
	StartOffset int64
	// Metrics, when set, receives rebalance.generations (bumps).
	Metrics *obsv.Registry
}

// NewGroupCfg creates a group from a full config.
func NewGroupCfg(cfg GroupConfig) (*Group, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("stream: group requires a client")
	}
	n, err := cfg.Client.PartitionCount(cfg.Topic)
	if err != nil {
		return nil, fmt.Errorf("group for %q: %w", cfg.Topic, err)
	}
	offsets := make([]int64, n)
	for i := range offsets {
		offsets[i] = cfg.StartOffset
	}
	g := &Group{
		client:     cfg.Client,
		topic:      cfg.Topic,
		partitions: n,
		offsets:    offsets,
	}
	if cfg.Metrics != nil {
		g.mGenerations = cfg.Metrics.Counter("rebalance.generations")
	}
	return g, nil
}

// Join adds a member and returns its handle. The assignment of every
// member changes (generation bump).
func (g *Group) Join(id string) (*GroupMember, error) {
	if id == "" {
		return nil, fmt.Errorf("stream: empty member id")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m == id {
			return nil, fmt.Errorf("%w: %q", ErrMemberExists, id)
		}
	}
	g.members = append(g.members, id)
	g.rebalancedLocked()
	return &GroupMember{group: g, id: id}, nil
}

// rebalancedLocked bumps the generation for a finished membership change.
func (g *Group) rebalancedLocked() {
	g.generation++
	if g.mGenerations != nil {
		g.mGenerations.Inc()
	}
}

// assignmentLocked returns the partitions assigned to member id under the
// current generation (round-robin by join order).
func (g *Group) assignmentLocked(id string) []int32 {
	idx := -1
	for i, m := range g.members {
		if m == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	var out []int32
	for p := idx; p < g.partitions; p += len(g.members) {
		out = append(out, int32(p))
	}
	return out
}

// GroupMember is one consumer within a group.
type GroupMember struct {
	group *Group
	id    string
}

// Poll fetches up to max messages from the member's assigned partitions,
// committing group offsets past what it returns. A member that has left
// the group gets ErrUnknownMember.
//
// A rebalance racing the poll is fenced by generation: messages fetched
// from partitions this member no longer owns are discarded (recycled)
// uncommitted — the new assignee re-reads them — and only the retained
// partitions commit. The caller never sees a message it does not own
// under the generation in force when Poll returns.
func (m *GroupMember) Poll(max int) ([]Message, error) {
	if max <= 0 {
		return nil, nil
	}
	g := m.group
	g.mu.Lock()
	assigned := g.assignmentLocked(m.id)
	if assigned == nil {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownMember, m.id)
	}
	// Snapshot offsets for the assigned partitions.
	reads := make([]PartitionRead, 0, len(assigned))
	for _, p := range assigned {
		reads = append(reads, PartitionRead{Partition: p, Offset: g.offsets[p]})
	}
	gen := g.generation
	g.mu.Unlock()

	// One read, as a Consumer's poll makes it; what it lends is cloned, as
	// the caller owns what Poll returns.
	var out []Message
	commits := make(map[int32]int64)
	g.client.FetchEach(g.topic, reads, max, func(m Message) {
		out = append(out, m.owning())
		commits[m.Partition] = m.Offset + 1
	})
	var firstErr error
	for _, r := range reads {
		if r.Err != nil {
			firstErr = fmt.Errorf("group fetch %q/%d: %w", g.topic, r.Partition, r.Err)
			break
		}
	}

	g.mu.Lock()
	if g.generation != gen {
		// Rebalanced mid-poll: keep only partitions still owned, drop and
		// recycle the rest so the new assignee is the sole deliverer.
		still := make(map[int32]bool)
		for _, p := range g.assignmentLocked(m.id) {
			still[p] = true
		}
		kept := out[:0]
		for i := range out {
			if still[out[i].Partition] {
				kept = append(kept, out[i])
			} else {
				delete(commits, out[i].Partition)
				RecycleMessages(out[i : i+1])
			}
		}
		for i := len(kept); i < len(out); i++ {
			out[i] = Message{}
		}
		out = kept
	}
	for p, off := range commits {
		if off > g.offsets[p] {
			g.offsets[p] = off
		}
	}
	g.mu.Unlock()
	return out, firstErr
}

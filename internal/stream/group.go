package stream

import (
	"errors"
	"fmt"
	"sort"
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
// Every rebalance bumps a generation number. Members that registered
// RebalanceHooks are told which partitions they lost (OnRevoke) and
// gained (OnAssign) under the new generation — all revocations fire
// before any assignment, so two members never believe they own the same
// partition at once. A poll that straddles a rebalance delivers only the
// messages from partitions the member still owns; fetches from revoked
// partitions are discarded uncommitted so the new assignee re-reads them
// (at-least-once, never double-delivered, never skipped).
type Group struct {
	client Client
	topic  string

	mu         sync.Mutex
	partitions int
	offsets    []int64
	members    []string // join order
	generation int64
	hooks      map[string]RebalanceHooks

	mGenerations, mRevoked, mAssigned *obsv.Counter
}

// RebalanceHooks are a member's rebalance callbacks. Either may be nil.
// Callbacks run outside the group lock (they may poll or commit), on the
// goroutine that triggered the rebalance — a member's own Join/Leave can
// therefore fire another member's hooks.
type RebalanceHooks struct {
	// OnRevoke reports partitions the member no longer owns under the new
	// generation. It fires before any OnAssign of the same rebalance.
	OnRevoke func(generation int64, partitions []int32)
	// OnAssign reports partitions the member newly owns.
	OnAssign func(generation int64, partitions []int32)
}

// GroupConfig configures a Group beyond the NewGroup basics.
type GroupConfig struct {
	Client      Client
	Topic       string
	StartOffset int64
	// Metrics, when set, receives rebalance.generations (bumps),
	// rebalance.revoked and rebalance.assigned (partition moves reported
	// through hooks).
	Metrics *obsv.Registry
}

// NewGroup creates a group over a topic, with all partition offsets at
// startOffset.
func NewGroup(client Client, topicName string, startOffset int64) (*Group, error) {
	return NewGroupCfg(GroupConfig{Client: client, Topic: topicName, StartOffset: startOffset})
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
		hooks:      make(map[string]RebalanceHooks),
	}
	if cfg.Metrics != nil {
		g.mGenerations = cfg.Metrics.Counter("rebalance.generations")
		g.mRevoked = cfg.Metrics.Counter("rebalance.revoked")
		g.mAssigned = cfg.Metrics.Counter("rebalance.assigned")
	}
	return g, nil
}

// Join adds a member and returns its handle. The assignment of every
// member changes (generation bump).
func (g *Group) Join(id string) (*GroupMember, error) {
	return g.JoinWithHooks(id, RebalanceHooks{})
}

// JoinWithHooks is Join with rebalance callbacks. The joining member's
// own OnAssign fires for its initial assignment, after the revocations
// this join causes elsewhere.
func (g *Group) JoinWithHooks(id string, hooks RebalanceHooks) (*GroupMember, error) {
	if id == "" {
		return nil, fmt.Errorf("stream: empty member id")
	}
	g.mu.Lock()
	for _, m := range g.members {
		if m == id {
			g.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrMemberExists, id)
		}
	}
	before := g.hookAssignmentsLocked()
	g.members = append(g.members, id)
	if hooks.OnRevoke != nil || hooks.OnAssign != nil {
		g.hooks[id] = hooks
		before[id] = nil
	}
	fire := g.rebalancedLocked(before)
	g.mu.Unlock()
	fire()
	return &GroupMember{group: g, id: id}, nil
}

// Leave removes a member; its partitions are redistributed.
func (g *Group) Leave(id string) error {
	g.mu.Lock()
	for i, m := range g.members {
		if m != id {
			continue
		}
		before := g.hookAssignmentsLocked()
		g.members = append(g.members[:i], g.members[i+1:]...)
		delete(g.hooks, id)
		delete(before, id) // the leaver gets no callbacks; it asked to go
		fire := g.rebalancedLocked(before)
		g.mu.Unlock()
		fire()
		return nil
	}
	g.mu.Unlock()
	return fmt.Errorf("%w: %q", ErrUnknownMember, id)
}

// hookAssignmentsLocked snapshots the current assignment of every member
// with hooks — the "before" side of a rebalance diff.
func (g *Group) hookAssignmentsLocked() map[string][]int32 {
	out := make(map[string][]int32, len(g.hooks))
	for id := range g.hooks {
		out[id] = g.assignmentLocked(id)
	}
	return out
}

// rebalancedLocked bumps the generation and builds the callback volley
// for a finished membership change: each hooked member's lost partitions
// (OnRevoke) and gained partitions (OnAssign) against the before
// snapshot. The returned closure fires them outside the lock, all
// revocations first.
func (g *Group) rebalancedLocked(before map[string][]int32) func() {
	g.generation++
	gen := g.generation
	if g.mGenerations != nil {
		g.mGenerations.Inc()
	}
	type call struct {
		fn    func(int64, []int32)
		parts []int32
	}
	var revokes, assigns []call
	for id, hooks := range g.hooks {
		after := g.assignmentLocked(id)
		lost := diffPartitions(before[id], after)
		gained := diffPartitions(after, before[id])
		if hooks.OnRevoke != nil && len(lost) > 0 {
			revokes = append(revokes, call{hooks.OnRevoke, lost})
			if g.mRevoked != nil {
				g.mRevoked.Add(int64(len(lost)))
			}
		}
		if hooks.OnAssign != nil && len(gained) > 0 {
			assigns = append(assigns, call{hooks.OnAssign, gained})
			if g.mAssigned != nil {
				g.mAssigned.Add(int64(len(gained)))
			}
		}
	}
	// Deterministic callback order (map iteration is not).
	sortCalls := func(cs []call) {
		sort.Slice(cs, func(i, j int) bool { return cs[i].parts[0] < cs[j].parts[0] })
	}
	sortCalls(revokes)
	sortCalls(assigns)
	return func() {
		for _, c := range revokes {
			c.fn(gen, c.parts)
		}
		for _, c := range assigns {
			c.fn(gen, c.parts)
		}
	}
}

// diffPartitions returns the elements of a not present in b, sorted.
func diffPartitions(a, b []int32) []int32 {
	var out []int32
	for _, p := range a {
		found := false
		for _, q := range b {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns the current member ids in join order.
func (g *Group) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.members))
	copy(out, g.members)
	return out
}

// Generation returns the rebalance generation (bumped on join/leave).
func (g *Group) Generation() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
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

// Offsets returns a copy of the group's committed per-partition offsets.
func (g *Group) Offsets() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int64, len(g.offsets))
	copy(out, g.offsets)
	return out
}

// GroupMember is one consumer within a group.
type GroupMember struct {
	group *Group
	id    string
}

// ID returns the member's id.
func (m *GroupMember) ID() string { return m.id }

// Assignment returns the member's current partitions, sorted.
func (m *GroupMember) Assignment() []int32 {
	m.group.mu.Lock()
	defer m.group.mu.Unlock()
	out := m.group.assignmentLocked(m.id)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	starts := make(map[int32]int64, len(assigned))
	for _, p := range assigned {
		starts[p] = g.offsets[p]
	}
	gen := g.generation
	g.mu.Unlock()

	var out []Message
	var firstErr error
	commits := make(map[int32]int64)
	for _, p := range assigned {
		if len(out) >= max {
			break
		}
		msgs, err := g.client.Fetch(g.topic, p, starts[p], max-len(out))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("group fetch %q/%d: %w", g.topic, p, err)
			}
			continue
		}
		if len(msgs) > 0 {
			commits[p] = msgs[len(msgs)-1].Offset + 1
			out = append(out, msgs...)
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

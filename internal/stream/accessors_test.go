package stream

import (
	"fmt"
	"sort"
)

// Add buffers one record, copying key and value into the batch arena (the
// caller's slices are free to reuse immediately). It flushes when the
// batch reaches FlushEvery records or batchMaxBytes projected frame bytes.
func (bp *BatchProducer) Add(key, value []byte) error {
	bp.arena = append(append(bp.arena, key...), value...)
	return bp.added(len(key), len(value))
}

// baseOffset returns the earliest retained offset.
func (l *partitionLog) baseOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Clone returns a deep copy of the message so consumers can retain it
// without aliasing broker memory.
func (m Message) Clone() Message {
	out := m
	if m.Key != nil {
		out.Key = append([]byte(nil), m.Key...)
	}
	if m.Value != nil {
		out.Value = append([]byte(nil), m.Value...)
	}
	return out
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

// Leave removes a member; its partitions are redistributed.
func (g *Group) Leave(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == id {
			g.members = append(g.members[:i], g.members[i+1:]...)
			g.rebalancedLocked()
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknownMember, id)
}

// Generation returns the rebalance generation (bumped on join/leave).
func (g *Group) Generation() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

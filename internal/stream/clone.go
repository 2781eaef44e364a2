package stream

import (
	"fmt"
	"slices"
	"sort"
)

// cloneBroker builds a fresh broker holding what src holds now: the same
// topics and partition counts, the same retained records at the same
// offsets with the same append times, an empty key or value kept apart
// from a nil one. It is how Revive rebuilds a replica, by copying each
// log's chunks whole rather than each record out and in again. Roles and
// down marks are not copied.
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
// backlog enters the clone's gate as credit debt: it was admitted once
// already, so it does not pass admission again.
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

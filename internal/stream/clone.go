package stream

import (
	"fmt"
	"sort"
)

// cloneBroker builds a fresh broker holding what src holds now: the same
// topics and partition counts, the same retained records at the same
// offsets with the same append times, an empty key or value kept apart
// from a nil one. It is how Revive rebuilds a replica, by copying each
// log's chunks whole rather than each record out and in again. Roles and
// down marks are not copied.
//
// The copy is written into donor's storage: donor is the closed broker the
// clone replaces, and each of its logs gives up its chunks, index and chunk
// table to the clone's log of the same topic and partition (see
// cloneFrom), so a failover cycle allocates no chunk and leaves none
// behind. A topic the donor lacks, or a nil donor, allocates.
func cloneBroker(cfg BrokerConfig, src, donor *Broker) (*Broker, error) {
	b := NewBroker(cfg)
	for _, st := range src.topicsByName() {
		if err := b.CreateTopic(st.name, len(st.partitions)); err != nil {
			return nil, fmt.Errorf("clone topic %q: %w", st.name, err)
		}
		var from []*partitionLog
		if donor != nil {
			donor.mu.RLock()
			if dt, ok := donor.topics[st.name]; ok {
				from = dt.partitions
			}
			donor.mu.RUnlock()
		}
		for p, pl := range b.topics[st.name].partitions {
			var d *partitionLog
			if p < len(from) {
				d = from[p]
			}
			pl.cloneFrom(st.partitions[p], d)
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
// chunk, standard chunks at their full capacity so that the tail takes
// the next appends and retention can reuse them. The memory comes from
// donor (nil: none) where it can: its standard chunks, live and spare,
// hold the copies, its index and chunk table arrays hold the clone's, and
// the chunks left over become the clone's spares, cut to the bound
// dropLocked keeps. Only the shortfall is allocated. The retention bounds
// stay the clone's own and are not applied, and the backlog enters the
// clone's gate as credit debt: it was admitted once already, so it does
// not pass admission again.
func (l *partitionLog) cloneFrom(src, donor *partitionLog) {
	var free, table [][]byte
	var index []logEntry
	if donor != nil {
		index, table, free = donor.strip()
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	l.base = src.base
	l.index = append(index[:0], src.index...)
	l.firstChunk = src.firstChunk
	for _, c := range src.chunks {
		var into []byte
		if n := len(free); n > 0 && cap(c) == logChunkSize {
			into, free[n-1] = free[n-1], nil
			free = free[:n-1]
		} else {
			into = make([]byte, 0, cap(c))
		}
		table = append(table, append(into, c...))
	}
	l.chunks = table
	if len(free) > len(l.chunks)+1 {
		clear(free[len(l.chunks)+1:])
		free = free[:len(l.chunks)+1]
	}
	l.spare = free
	if l.gate != nil {
		l.credited = l.base
		l.gate.Acquire(int64(len(l.index)))
	}
}

// strip empties a dead log for cloneFrom, under its lock, and hands over
// its storage: the index array, the chunk table array and every standard
// chunk it held, live or spare, all emptied, the chunks on one free list.
// The log is left holding no records at its old high watermark, so a late
// read finds nothing and a late HighWaterMark does not move backwards;
// anything it lent was valid only under this lock.
func (l *partitionLog) strip() (index []logEntry, table, free [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	free = l.spare
	for _, c := range l.chunks {
		if cap(c) == logChunkSize {
			free = append(free, c[:0])
		}
	}
	clear(l.chunks)
	index, table = l.index[:0], l.chunks[:0]
	l.base += int64(len(l.index))
	l.index, l.chunks, l.spare = nil, nil, nil
	return index, table, free
}

package stream

import (
	"fmt"
	"sync"
	"time"

	"cad3/internal/flow"
)

// partitionLog is one partition's append-only message log. It retains a
// bounded number of messages: once the log exceeds maxRetained the oldest
// half is discarded and the base offset advances, like Kafka segment
// deletion. Offsets are stable across truncation.
//
// When the broker runs flow-controlled, the log also fronts an admission
// gate: appends consume credits (the broker calls Admit before append) and
// the drain side returns them — a fetch that advances the furthest-read
// offset releases that many credits, and retention eviction releases the
// credits of messages no reader ever claimed. Occupancy therefore tracks
// the un-drained backlog of the partition's fastest reader, the CAD3
// single-consumer-group semantics (the RSU ingestion loop on IN-DATA, the
// vehicle fleet collectively on OUT-DATA).
type partitionLog struct {
	mu          sync.Mutex
	base        int64 // offset of msgs[0]
	msgs        []Message
	maxRetained int
	maxAge      time.Duration // 0 = no age-based retention
	now         func() time.Time

	// gate is the partition's admission gate (nil = unbounded legacy
	// admission); credited is the highest offset accounted as drained.
	gate     *flow.Gate
	credited int64
}

// defaultMaxRetained bounds per-partition memory; at ~200 B/message this is
// ~50 MB across a 3-partition topic under sustained load.
const defaultMaxRetained = 1 << 16

func newPartitionLog(maxRetained int, maxAge time.Duration, now func() time.Time) *partitionLog {
	if maxRetained <= 0 {
		maxRetained = defaultMaxRetained
	}
	if now == nil {
		now = time.Now
	}
	return &partitionLog{maxRetained: maxRetained, maxAge: maxAge, now: now}
}

// append adds a message and returns its offset and append timestamp.
func (l *partitionLog) append(m Message) (int64, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	offset := l.base + int64(len(l.msgs))
	m.Offset = offset
	m.AppendedAt = l.now()
	l.msgs = append(l.msgs, m)
	if len(l.msgs) > l.maxRetained {
		l.dropLocked(len(l.msgs) / 2)
	}
	if l.maxAge > 0 {
		cutoff := m.AppendedAt.Add(-l.maxAge)
		drop := 0
		for drop < len(l.msgs)-1 && l.msgs[drop].AppendedAt.Before(cutoff) {
			drop++
		}
		if drop > 0 {
			l.dropLocked(drop)
		}
	}
	return offset, m.AppendedAt
}

// appendBatch adds a run of messages destined for this partition in one
// lock acquisition, stamping them all with one append time (Kafka's
// LogAppendTime has batch granularity too). The messages receive
// contiguous offsets starting at the returned base. The slice contents
// are taken over by the log; the slice header itself is not retained.
func (l *partitionLog) appendBatch(msgs []Message, stamp time.Time) int64 {
	if len(msgs) == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.base + int64(len(l.msgs))
	for i := range msgs {
		msgs[i].Offset = base + int64(i)
		msgs[i].AppendedAt = stamp
	}
	l.msgs = append(l.msgs, msgs...)
	for len(l.msgs) > l.maxRetained {
		l.dropLocked(len(l.msgs) / 2)
	}
	if l.maxAge > 0 {
		cutoff := stamp.Add(-l.maxAge)
		drop := 0
		for drop < len(l.msgs)-1 && l.msgs[drop].AppendedAt.Before(cutoff) {
			drop++
		}
		if drop > 0 {
			l.dropLocked(drop)
		}
	}
	return base
}

// dropLocked discards the oldest n messages, advancing the base offset.
// Credits held by evicted-but-never-fetched messages return to the gate:
// eviction is the queue draining, just without a reader.
func (l *partitionLog) dropLocked(n int) {
	if n <= 0 {
		return
	}
	if n > len(l.msgs) {
		n = len(l.msgs)
	}
	// The log owns its message buffers (readers get clones), so evicted
	// entries hand their payloads back to the pool.
	for i := 0; i < n; i++ {
		recyclePayloads(&l.msgs[i])
	}
	// Compact in place: retention fires every maxRetained/2 appends under
	// sustained load, and reallocating the window each time made the GC
	// the hottest function in the produce path. Capacity stays bounded by
	// what maxRetained already allowed; the vacated tail is zeroed so
	// stale entries don't pin recycled buffers.
	remaining := len(l.msgs) - n
	copy(l.msgs, l.msgs[n:])
	tail := l.msgs[remaining:]
	for i := range tail {
		tail[i] = Message{}
	}
	l.msgs = l.msgs[:remaining]
	l.base += int64(n)
	l.creditThroughLocked(l.base)
}

// creditThroughLocked releases gate credits up to offset (exclusive) if
// that advances the drained frontier.
func (l *partitionLog) creditThroughLocked(offset int64) {
	if l.gate == nil || offset <= l.credited {
		return
	}
	l.gate.Release(offset - l.credited)
	l.credited = offset
}

// read returns up to max messages starting at offset. Reading below the
// base offset (truncated history) transparently resumes at the base, like
// a Kafka consumer resetting to earliest. Reading at or past the high
// watermark returns an empty slice.
func (l *partitionLog) read(offset int64, max int) []Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset < l.base {
		offset = l.base
	}
	start := int(offset - l.base)
	if start >= len(l.msgs) || max <= 0 {
		return nil
	}
	end := start + max
	if end > len(l.msgs) {
		end = len(l.msgs)
	}
	out := make([]Message, end-start)
	for i := range out {
		// Pooled clones: the reader owns them and may return them via
		// RecycleMessages once decoded.
		out[i] = pooledCloneMessage(l.msgs[start+i])
	}
	// Fetch credits: the furthest-ahead reader drains the queue.
	l.creditThroughLocked(l.base + int64(end))
	return out
}

// highWaterMark returns the offset the next append will receive.
func (l *partitionLog) highWaterMark() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + int64(len(l.msgs))
}

// baseOffset returns the earliest retained offset.
func (l *partitionLog) baseOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// topic is a named set of partition logs.
type topic struct {
	name       string
	partitions []*partitionLog
}

func newTopic(name string, partitions, maxRetained int, maxAge time.Duration, now func() time.Time) (*topic, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: empty topic name")
	}
	if partitions <= 0 {
		return nil, fmt.Errorf("stream: topic %q needs >= 1 partition, got %d", name, partitions)
	}
	t := &topic{name: name, partitions: make([]*partitionLog, partitions)}
	for i := range t.partitions {
		t.partitions[i] = newPartitionLog(maxRetained, maxAge, now)
	}
	return t, nil
}

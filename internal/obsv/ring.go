package obsv

import (
	"sync"
	"time"
)

// TraceEntry is one completed (or partially completed) pipeline trace as
// exposed by /trace/recent: the warning's identity plus the Figure 6
// latency components in microseconds.
type TraceEntry struct {
	Car     int64  `json:"car"`
	Road    int64  `json:"road"`
	BatchID uint64 `json:"batchId"`
	// AtMicro is when the entry was pushed (unix microseconds).
	AtMicro int64 `json:"atMicro"`
	// Stage latency components, microseconds. Stages not yet crossed are
	// zero (an RSU-side entry has no dissemination; the vehicle-side
	// entry completes it).
	TxMicros    int64 `json:"txMicros"`
	QueueMicros int64 `json:"queueMicros"`
	ProcMicros  int64 `json:"procMicros"`
	DissMicros  int64 `json:"dissMicros"`
	TotalMicros int64 `json:"totalMicros"`
}

// entryFromContext converts whatever stages tc has crossed into an entry.
func entryFromContext(car, road int64, tc TraceContext, at time.Time) TraceEntry {
	e := TraceEntry{Car: car, Road: road, BatchID: tc.BatchID, AtMicro: at.UnixMicro()}
	if tc.SentMicro != 0 && tc.ArriveMicro >= tc.SentMicro {
		e.TxMicros = tc.ArriveMicro - tc.SentMicro
	}
	if tc.ArriveMicro != 0 && tc.DequeueMicro >= tc.ArriveMicro {
		e.QueueMicros = tc.DequeueMicro - tc.ArriveMicro
	}
	if tc.DequeueMicro != 0 && tc.DetectMicro >= tc.DequeueMicro {
		e.ProcMicros = tc.DetectMicro - tc.DequeueMicro
	}
	if tc.DetectMicro != 0 && tc.DeliverMicro >= tc.DetectMicro {
		e.DissMicros = tc.DeliverMicro - tc.DetectMicro
	}
	e.TotalMicros = e.TxMicros + e.QueueMicros + e.ProcMicros + e.DissMicros
	return e
}

// TraceRing keeps the most recent N trace entries for /trace/recent. A
// push overwrites the oldest entry; there is no unbounded growth. Safe for
// concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []TraceEntry
	next int
	n    int
}

// DefaultTraceRingSize bounds /trace/recent memory (256 entries ≈ 20 KiB).
const DefaultTraceRingSize = 256

// NewTraceRing creates a ring holding up to size entries (<= 0 selects
// DefaultTraceRingSize).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		size = DefaultTraceRingSize
	}
	return &TraceRing{buf: make([]TraceEntry, size)}
}

// Push records an entry, evicting the oldest when full.
func (r *TraceRing) Push(e TraceEntry) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// PushContext converts the context's crossed stages and records them.
func (r *TraceRing) PushContext(car, road int64, tc TraceContext, at time.Time) {
	r.Push(entryFromContext(car, road, tc, at))
}

// Recent returns up to max entries, newest first.
func (r *TraceRing) Recent(max int) []TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max <= 0 || max > r.n {
		max = r.n
	}
	out := make([]TraceEntry, 0, max)
	for i := 1; i <= max; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

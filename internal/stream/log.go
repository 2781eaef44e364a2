package stream

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
)

// partitionLog is one partition's append-only message log. It retains a
// bounded number of messages: once the log exceeds maxRetained the oldest
// half is discarded and the base offset advances, like Kafka segment
// deletion. Offsets are stable across truncation.
//
// Storage is a slab: record bytes (key, then value) are copied once into
// fixed-size chunks the log owns, and a compact index entry per record
// says where they are. Every writer — append, appendRun, appendBatch,
// appendReplica — goes through storeLocked; readers borrow views of the
// chunks under the partition lock (scan, which read clones from), and
// cloneFrom copies the chunks whole. Retention drops index entries and
// hands the chunks they wholly vacate to a spare list the next appends
// draw from, so a full log at steady state allocates nothing.
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
	mu        sync.Mutex
	topic     string // stamped on the messages read hands out
	partition int32
	base      int64 // offset of index[0]
	index     []logEntry
	// chunks holds the live chunks, oldest first: chunks[i] has sequence
	// number firstChunk+i, each one's length is the bytes written to it,
	// and the last one takes the next append. spare holds vacated chunks.
	chunks      [][]byte
	firstChunk  uint32
	spare       [][]byte
	maxRetained int

	// gate is the partition's admission gate (nil = unbounded legacy
	// admission); credited is the highest offset accounted as drained.
	gate     *flow.Gate
	credited int64
}

// logEntry locates one record in the chunks: the key starts at off in
// chunk number chunk and the value follows it. A length of -1 is a nil
// slice, so nil and empty keys and values read back as they were written.
type logEntry struct {
	at         int64 // append time, Unix nanoseconds
	chunk      uint32
	off        uint32
	klen, vlen int32
}

// defaultMaxRetained bounds per-partition memory; at ~200 B/message plus a
// 24 B index entry this is ~45 MB across a 3-partition topic under
// sustained load, held in 64 KiB chunks that eviction recycles in place.
const defaultMaxRetained = 1 << 16

// logChunkSize is the size of the chunks record bytes live in: ~300
// telemetry records each, so chunk turnover is rare next to appends and a
// near-empty log costs one chunk. A record that does not fit an empty
// chunk (up to MaxMessageSize plus its key) gets a chunk of its own size.
const logChunkSize = 64 << 10

func newPartitionLog(topic string, partition int32, maxRetained int) *partitionLog {
	if maxRetained <= 0 {
		maxRetained = defaultMaxRetained
	}
	return &partitionLog{topic: topic, partition: partition, maxRetained: maxRetained}
}

// storeLocked is the one store path: it copies key then value into the
// tail chunk — the only copy an append makes — and indexes the record at
// append time at. It returns the log's own copy, capacity-clipped so an
// append to either slice cannot reach the neighbouring record.
//
//cad3:noalloc
func (l *partitionLog) storeLocked(key, value []byte, at int64) (k, v []byte) {
	need := len(key) + len(value)
	tail := len(l.chunks) - 1
	if tail < 0 || cap(l.chunks[tail])-len(l.chunks[tail]) < need {
		l.addChunkLocked(need)
		tail = len(l.chunks) - 1
	}
	c := l.chunks[tail]
	e := logEntry{at: at, chunk: l.firstChunk + uint32(tail), off: uint32(len(c)), klen: -1, vlen: -1}
	if key != nil {
		e.klen = int32(len(key))
	}
	if value != nil {
		e.vlen = int32(len(value))
	}
	l.chunks[tail] = append(append(c, key...), value...)
	l.index = append(l.index, e)
	return l.viewLocked(e)
}

// addChunkLocked opens a new tail chunk with room for need bytes: a spare
// when there is one, a fresh allocation (the log's first, lazily, on its
// first append) when not.
func (l *partitionLog) addChunkLocked(need int) {
	var c []byte
	switch n := len(l.spare); {
	case need > logChunkSize:
		c = make([]byte, 0, need)
	case n > 0:
		c, l.spare[n-1] = l.spare[n-1], nil
		l.spare = l.spare[:n-1]
	default:
		c = make([]byte, 0, logChunkSize)
	}
	l.chunks = append(l.chunks, c)
}

// viewLocked returns the stored key and value of one index entry as
// capacity-clipped views of the chunk holding them.
func (l *partitionLog) viewLocked(e logEntry) (k, v []byte) {
	c := l.chunks[e.chunk-l.firstChunk]
	p := int(e.off)
	if e.klen >= 0 {
		k = c[p : p+int(e.klen) : p+int(e.klen)]
		p += int(e.klen)
	}
	if e.vlen >= 0 {
		v = c[p : p+int(e.vlen) : p+int(e.vlen)]
	}
	return k, v
}

// append adds one message stamped with append time now and returns its
// offset. Log-append-time trace stamping (like Kafka's LogAppendTime): a
// traced telemetry payload gets its StageArrive timestamp written in place
// into the log's copy, ending the Tx component of the paper's latency
// decomposition; untraced and JSON payloads are left untouched. A non-nil
// stored receives the record as the log now holds it — views of the
// chunk, valid until retention vacates it (see Broker.produceStored).
func (l *partitionLog) append(key, value []byte, now time.Time, stored *ReplicaRecord) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	offset := l.base + int64(len(l.index))
	at := now.UnixNano()
	k, v := l.appendOneLocked(key, value, now, at)
	if stored != nil {
		*stored = ReplicaRecord{Key: k, Value: v, AppendedAtNs: at}
	}
	return offset
}

// appendOneLocked is one append: store, stamp, then retention — ONE size
// drop, where the batch paths loop. It returns the log's copy.
//
//cad3:noalloc
func (l *partitionLog) appendOneLocked(key, value []byte, now time.Time, at int64) (k, v []byte) {
	k, v = l.storeLocked(key, value, at)
	obsv.StampPayload(v, obsv.StageArrive, now)
	if len(l.index) > l.maxRetained {
		l.dropLocked(len(l.index) / 2)
	}
	return k, v
}

// appendRun is append for one partition's share of a replicated batch,
// the records recs[i] for i in idx, under one lock acquisition and one
// clock reading. Each record goes through what a produce of it alone goes
// through, in order — the gate admits it or refuses it (class; a nil gate
// admits), then append's store, stamp and retention — so the log, the
// offsets and the refusals are those of len(idx) single produces, and
// res[i] gets the record's partition and offset or the gate's error. With
// a non-nil stored the appended records are added to it as the log holds
// them (see append), for the caller to push to followers.
//
// With stored, the run ends once retention has dropped one of its own
// records: the chunk under that record's view is a spare now, which the
// next append may write over, so the caller has to push what it holds
// before it comes back with the rest. n is how many of idx were settled,
// base the offset of the first record appended, of appended in all, bytes
// their wire size.
//
//cad3:noalloc
func (l *partitionLog) appendRun(recs []BatchRecord, idx []int32, res []BatchResult, now time.Time, class flow.Class, stored *[]ReplicaRecord) (n int, base int64, appended int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := now.UnixNano()
	base = l.base + int64(len(l.index))
	for n < len(idx) && (stored == nil || l.base <= base) {
		i := idx[n]
		n++
		if l.gate != nil {
			if err := l.gate.Admit(class); err != nil {
				res[i] = BatchResult{Err: err}
				continue
			}
		}
		// Read before the append: retention may move the base under it.
		res[i] = BatchResult{Partition: l.partition, Offset: l.base + int64(len(l.index))}
		k, v := l.appendOneLocked(recs[i].Key, recs[i].Value, now, at)
		if stored != nil {
			*stored = append(*stored, ReplicaRecord{Key: k, Value: v, AppendedAtNs: at})
		}
		appended++
		bytes += int64(Message{Topic: l.topic, Key: k, Value: v}.WireSize())
	}
	return n, base, appended, bytes
}

// appendBatch adds a run of records destined for this partition in one
// lock acquisition, stamping them all with one append time (Kafka's
// LogAppendTime has batch granularity too) and StageArrive as append does.
// The records receive contiguous offsets starting at the returned base.
// Nothing of recs is retained.
func (l *partitionLog) appendBatch(recs []BatchRecord, now time.Time) int64 {
	if len(recs) == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	base := l.base + int64(len(l.index))
	at := now.UnixNano()
	for i := range recs {
		_, v := l.storeLocked(recs[i].Key, recs[i].Value, at)
		obsv.StampPayload(v, obsv.StageArrive, now)
	}
	for len(l.index) > l.maxRetained {
		l.dropLocked(len(l.index) / 2)
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
	if n > len(l.index) {
		n = len(l.index)
	}
	// Compact the index in place: retention fires every maxRetained/2
	// appends under sustained load, and reallocating the window each time
	// made the GC the hottest function in the produce path.
	l.index = l.index[:copy(l.index, l.index[n:])]
	l.base += int64(n)

	// Chunks before the one holding the oldest surviving record are wholly
	// vacated (all of them, once nothing survives) and go to the spare
	// list, which is then cut to one more than the chunks still live — the
	// most the appends up to the next eviction can need when records keep
	// their size, so the steady state allocates nothing, and a log that
	// shrinks lets go of the rest. A chunk sized for one oversized record
	// is never kept.
	vacated := len(l.chunks)
	if len(l.index) > 0 {
		vacated = int(l.index[0].chunk - l.firstChunk)
	}
	live := len(l.chunks) - vacated
	for _, c := range l.chunks[:vacated] {
		if cap(c) == logChunkSize {
			l.spare = append(l.spare, c[:0])
		}
	}
	if len(l.spare) > live+1 {
		clear(l.spare[live+1:])
		l.spare = l.spare[:live+1]
	}
	copy(l.chunks, l.chunks[vacated:])
	clear(l.chunks[live:])
	l.chunks = l.chunks[:live]
	l.firstChunk += uint32(vacated)

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

// windowLocked clamps a read of up to max records at offset to the index
// positions [start, end) it covers. Reading below the base offset
// (truncated history) transparently resumes at the base, like a Kafka
// consumer resetting to earliest; reading at or past the high watermark
// covers nothing.
func (l *partitionLog) windowLocked(offset int64, max int) (start, end int) {
	if offset < l.base {
		offset = l.base
	}
	if max <= 0 || offset-l.base >= int64(len(l.index)) {
		return 0, 0
	}
	start = int(offset - l.base)
	end = len(l.index)
	if max < end-start {
		end = start + max
	}
	return start, end
}

// scanLocked is the one read loop: it hands fn the records at index
// positions [start, end) as messages whose Key and Value are
// capacity-clipped views of the chunk, and reports how many there were and
// their wire size. The views are only good inside fn: once the partition
// lock is let go, retention may hand the chunk to later appends. A read
// that covers anything credits the gate — the furthest-ahead reader drains
// the queue.
func (l *partitionLog) scanLocked(start, end int, fn func(Message)) (n int, bytes int64) {
	if end <= start {
		return 0, 0
	}
	m := Message{Topic: l.topic, Partition: l.partition}
	for i := start; i < end; i++ {
		e := l.index[i]
		m.Offset = l.base + int64(i)
		m.Key, m.Value = l.viewLocked(e)
		m.AppendedAt = time.Unix(0, e.at)
		bytes += int64(m.WireSize())
		fn(m)
	}
	l.creditThroughLocked(l.base + int64(end))
	return end - start, bytes
}

// scan lends fn up to max records starting at offset, under the partition
// lock: fn must not keep the views it is handed and must not call back
// into the broker.
func (l *partitionLog) scan(offset int64, max int, fn func(Message)) (n int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, end := l.windowLocked(offset, max)
	return l.scanLocked(start, end, fn)
}

// read is scan for a reader that keeps what it reads: the records come
// back as messages owning pooled clones of key and value, which the reader
// may return via RecycleMessages once decoded, with their wire size.
// Nothing to read is nil.
func (l *partitionLog) read(offset int64, max int) (out []Message, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, end := l.windowLocked(offset, max)
	out = slices.Grow(out, end-start)
	_, bytes = l.scanLocked(start, end, func(m Message) { out = append(out, m.owning()) })
	return out, bytes
}

// highWaterMark returns the offset the next append will receive.
func (l *partitionLog) highWaterMark() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + int64(len(l.index))
}

// topic is a named set of partition logs.
type topic struct {
	name       string
	partitions []*partitionLog
}

func newTopic(name string, partitions, maxRetained int) (*topic, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: empty topic name")
	}
	if partitions <= 0 {
		return nil, fmt.Errorf("stream: topic %q needs >= 1 partition, got %d", name, partitions)
	}
	t := &topic{name: name, partitions: make([]*partitionLog, partitions)}
	for i := range t.partitions {
		t.partitions[i] = newPartitionLog(name, int32(i), maxRetained)
	}
	return t, nil
}

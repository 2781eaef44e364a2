package stream

// Batched produce. A reqProduceBatch frame packs N records for one topic
// into a single length-prefixed frame, flushed with one vectored write
// (net.Buffers → writev) straight from the callers' buffers — the frame
// header and the per-field length prefixes come from reused scratch, the
// key/value bytes are never copied on the way out. Several batch frames
// ride in flight at once (the issue/await split below).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"cad3/internal/flow"
)

// BatchRecord is one record in a produce batch. A nil Key selects
// round-robin partitioning, like Produce.
type BatchRecord struct {
	Key   []byte
	Value []byte
}

// BatchResult is the broker's per-record answer to a batch. Err is nil
// on success, flow.ErrBackpressure (with RetryAfter carrying the
// broker's hint) on a paced refusal, or a remote error otherwise — the
// sentinel shapes mirror Produce so callers reuse their handling.
type BatchResult struct {
	Partition  int32
	Offset     int64
	RetryAfter time.Duration
	Err        error
}

// errBatchSize is returned when len(res) != len(recs).
var errBatchSize = errors.New("stream: batch results length must match records")

// PendingBatch is an issued-but-unawaited batch: the frame is on the
// wire and Await collects the per-record results. Keeping several pending
// batches in flight is how a producer fills the connection's window.
type PendingBatch struct {
	c  *TCPClient
	ch chan pipeResp
	n  int
}

// batchFrameSize computes the full frame size (length prefix included)
// of a batch for the given topic and records.
//
//cad3:noalloc
func batchFrameSize(topic string, recs []BatchRecord) int {
	// header + topic (u32 + bytes) + partition + count.
	n := frameHeaderSize + 4 + len(topic) + 4 + 4
	for i := range recs {
		n += 8 + len(recs[i].Key) + len(recs[i].Value)
	}
	return n
}

// batchInlineCutoff is the largest value that gets copied into the
// arena rather than referenced from the iov. The kernel charges writev
// per iovec entry: three entries per record turns a 64-record telemetry
// batch into ~200 segments and the segment walk, not the byte copy,
// dominates the syscall. Below the cutoff a memcpy into one contiguous
// arena run is far cheaper than its own iovec; above it, zero-copy by
// reference wins.
const batchInlineCutoff = 4096

// encodeBatchLocked assembles the vectored batch frame under c.mu: the
// header (frame length, type, correlation ID, topic, partition, count)
// goes into the encoder buffer; record prefixes, keys, and small values
// are packed contiguously into the reused arena, with only values past
// batchInlineCutoff parked in the iov by reference. One writev flushes
// the lot — for telemetry-sized records that is two iovec entries total.
//
//cad3:noalloc
func (c *TCPClient) encodeBatchLocked(topic string, partition int32, recs []BatchRecord, total int) {
	c.enc.str(topic)
	c.enc.u32(uint32(partition))
	c.enc.u32(uint32(len(recs)))

	// The arena is sized up front to the whole frame (a safe upper bound
	// on its share): growing it mid-loop would move the runs already
	// parked in the iov.
	if cap(c.arena) < total {
		c.arena = append(c.arena[:cap(c.arena)], make([]byte, total-cap(c.arena))...)
	}
	a := c.arena[:0]

	c.iov = c.iov[:0]
	c.iov = append(c.iov, c.enc.buf)
	seg := 0 // start of the arena run not yet parked in the iov
	var p [8]byte
	for i := range recs {
		k, v := recs[i].Key, recs[i].Value
		binary.BigEndian.PutUint32(p[0:], uint32(len(k)))
		binary.BigEndian.PutUint32(p[4:], uint32(len(v)))
		a = append(a, p[:4]...)
		a = append(a, k...)
		a = append(a, p[4:8]...)
		if len(v) > batchInlineCutoff {
			c.iov = append(c.iov, a[seg:len(a):len(a)])
			seg = len(a)
			c.iov = append(c.iov, v)
		} else {
			a = append(a, v...)
		}
	}
	if len(a) > seg {
		c.iov = append(c.iov, a[seg:len(a):len(a)])
	}
	// Patch the frame length over the whole vectored payload.
	binary.BigEndian.PutUint32(c.enc.buf[:4], uint32(total-4))
}

// ProduceBatchIssue puts a batch on the wire and returns without waiting
// for the results; Await collects them. recs (and the buffers behind
// them) must stay untouched until Await returns.
func (c *TCPClient) ProduceBatchIssue(topic string, partition int32, recs []BatchRecord) (PendingBatch, error) {
	total := batchFrameSize(topic, recs)
	if uint32(total) > c.peerMax {
		return PendingBatch{}, fmt.Errorf("stream: batch frame %d B exceeds peer max %d B; flush smaller batches", total, c.peerMax)
	}
	p := c.pipe
	ch, err := p.acquire()
	if err != nil {
		return PendingBatch{}, err
	}
	c.mu.Lock()
	if err := c.pipeIssueLocked(ch, reqProduceBatch); err != nil {
		c.mu.Unlock()
		p.release(ch)
		return PendingBatch{}, err
	}
	c.encodeBatchLocked(topic, partition, recs, total)
	c.sent = c.iov
	_, werr := c.sent.WriteTo(c.conn)
	if werr != nil {
		_ = c.conn.Close()
	}
	c.mu.Unlock()
	if werr != nil {
		p.abandon(ch)
		return PendingBatch{}, fmt.Errorf("stream batch write: %w", werr)
	}
	return PendingBatch{c: c, ch: ch, n: len(recs)}, nil
}

// Await collects the batch's per-record results into res, which must
// have the batch's length. The error covers transport/protocol failures;
// per-record broker refusals land in res[i].Err.
func (pb *PendingBatch) Await(res []BatchResult) error {
	if len(res) != pb.n {
		return errBatchSize
	}
	msgType, dec, err := pb.c.pipeAwait(pb.ch)
	if err != nil {
		return err
	}
	if msgType != respProduceBatch {
		dec.release()
		return errUnexpectedResponse(msgType)
	}
	n := int(dec.u32())
	if dec.err == nil && n != pb.n {
		dec.err = fmt.Errorf("stream: batch answered %d results for %d records", n, pb.n)
	}
	for i := 0; i < pb.n && dec.err == nil; i++ {
		res[i] = BatchResult{}
		switch status := dec.byte1(); status {
		case batchStatusOK:
			res[i].Partition = int32(dec.u32())
			res[i].Offset = int64(dec.u64())
		case batchStatusBackpressure:
			res[i].RetryAfter = time.Duration(dec.u64()) * time.Microsecond
			res[i].Err = flow.ErrBackpressure
		case batchStatusError:
			res[i].Err = remoteError(dec.str())
		default:
			if dec.err == nil {
				dec.err = fmt.Errorf("stream: unknown batch result status %d", status)
			}
		}
	}
	err = dec.err
	dec.release()
	return err
}

// ProduceBatchInto implements Client: issue + await in one call.
func (c *TCPClient) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	if len(res) != len(recs) {
		return errBatchSize
	}
	pb, err := c.ProduceBatchIssue(topic, partition, recs)
	if err != nil {
		return err
	}
	return pb.Await(res)
}

// BatchProducerConfig tunes a BatchProducer.
type BatchProducerConfig struct {
	// FlushEvery flushes automatically once this many records are
	// buffered. Values <= 0 select 64.
	FlushEvery int
}

// batchMaxBytes caps the projected frame size of a buffered batch: Add
// flushes once a batch reaches it.
const batchMaxBytes = 256 << 10

func (cfg BatchProducerConfig) withDefaults() BatchProducerConfig {
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 64
	}
	return cfg
}

// BatchProducer accumulates records and flushes them as batch frames. The
// buffered keys and values live back to back in one arena the producer
// owns, so a record costs the copy into it and nothing from the payload
// pool. It is NOT safe for concurrent use — one producer per sending
// goroutine, like the paper's per-vehicle Kafka producer. The results of a
// flush are surfaced through the OnResult callback, so a caller can feed
// its pacer without blocking the add path.
type BatchProducer struct {
	client    Client
	topic     string
	partition int32
	cfg       BatchProducerConfig

	// arena holds each buffered record's key, then its value; lens says how
	// long each is. Offsets, not slices: the arena moves when it grows, so
	// recs — the views the client is handed — are made at Flush.
	arena []byte
	lens  []recLens
	recs  []BatchRecord
	res   []BatchResult

	// OnResult, when set, observes every per-record result at flush.
	OnResult func(r BatchResult)
}

// recLens is the key and value length of one record in a batch arena.
type recLens struct{ key, value int }

// appendBatchViews appends to recs one record per entry of lens, as
// capacity-clipped views of arena, where they lie key then value. An empty
// key is nil (round-robin partitioning); a value never is.
func appendBatchViews(recs []BatchRecord, arena []byte, lens []recLens) []BatchRecord {
	p := 0
	for _, l := range lens {
		var rec BatchRecord
		if l.key > 0 {
			rec.Key = arena[p : p+l.key : p+l.key]
		}
		p += l.key
		rec.Value = arena[p : p+l.value : p+l.value]
		p += l.value
		recs = append(recs, rec)
	}
	return recs
}

// NewBatchProducer binds a batch producer to a topic. partition is
// usually AutoPartition: each record's key picks its partition.
func NewBatchProducer(client Client, topicName string, partition int32, cfg BatchProducerConfig) (*BatchProducer, error) {
	if client == nil {
		return nil, fmt.Errorf("stream: batch producer requires a client")
	}
	if topicName == "" {
		return nil, ErrEmptyTopicName
	}
	cfg = cfg.withDefaults()
	return &BatchProducer{
		client:    client,
		topic:     topicName,
		partition: partition,
		cfg:       cfg,
		arena:     make([]byte, 0, pooledBufCap),
		lens:      make([]recLens, 0, cfg.FlushEvery),
		recs:      make([]BatchRecord, 0, cfg.FlushEvery),
		res:       make([]BatchResult, cfg.FlushEvery),
	}, nil
}

// AddPooled buffers a record whose value encode assembles (e.g.
// core.AppendRecord): it is handed the empty tail of the batch arena and
// appends the wire bytes there, in place of a buffer from the payload pool.
// An encode that outgrows the tail returns its own buffer, which is copied
// in.
func (bp *BatchProducer) AddPooled(key []byte, encode func(dst []byte) []byte) error {
	bp.arena = append(bp.arena, key...)
	n := len(bp.arena)
	value := encode(bp.arena[n:])
	bp.arena = append(bp.arena, value...) // onto itself when encode wrote in place
	return bp.added(len(key), len(value))
}

// added books the record just appended to the arena and flushes a full
// batch.
func (bp *BatchProducer) added(key, value int) error {
	bp.lens = append(bp.lens, recLens{key: key, value: value})
	if len(bp.lens) >= bp.cfg.FlushEvery || len(bp.arena)+8*len(bp.lens) >= batchMaxBytes {
		return bp.Flush()
	}
	return nil
}

// Len returns the number of buffered (unflushed) records.
func (bp *BatchProducer) Len() int { return len(bp.lens) }

// Flush sends the buffered records as one batch frame and empties the
// arena (the client has copied or written what it sends by the time it
// returns). Per-record refusals go to OnResult; the returned error is
// transport-level (the whole batch failed).
func (bp *BatchProducer) Flush() error {
	if len(bp.lens) == 0 {
		return nil
	}
	bp.recs = appendBatchViews(bp.recs[:0], bp.arena, bp.lens)
	if cap(bp.res) < len(bp.recs) {
		bp.res = make([]BatchResult, len(bp.recs))
	}
	res := bp.res[:len(bp.recs)]
	err := bp.client.ProduceBatchInto(bp.topic, bp.partition, bp.recs, res)
	clear(bp.recs)
	bp.arena, bp.lens = bp.arena[:0], bp.lens[:0]
	if err != nil {
		return err
	}
	if bp.OnResult != nil {
		for i := range res {
			bp.OnResult(res[i])
		}
	}
	return nil
}

package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire protocol (v3): every frame is a uint32 big-endian length followed
// by a one-byte message type, a uint32 correlation ID and a type-specific
// payload. Strings and byte slices are length-prefixed with uint32.
//
// A connection opens with a hello exchange, the only two frames without a
// correlation ID; a server closes any connection that opens otherwise.
// After it the client pipelines: requests go out without waiting for
// answers, and responses come back in request order — the correlation ID
// indexes the client's in-flight ring and doubles as an integrity check.
// See DESIGN.md §12.

// Request / response type tags.
const (
	reqCreateTopic byte = iota + 1
	reqProduce
	reqFetch
	reqPartitionCount
	reqListTopics

	respOK byte = iota + 100
	respError
	respProduce
	respFetch
	respPartitionCount
	respListTopics
)

const (
	// reqHello opens a connection: the client's protocol version, frame
	// limit and window.
	reqHello byte = 20
	// reqProduceBatch packs N records for one topic into a single frame.
	reqProduceBatch byte = 21

	// respHello carries the server's protocol version and frame limit.
	respHello byte = 120
	// respProduceBatch carries per-record results for a batch.
	respProduceBatch byte = 121
)

// Replication control plane (DESIGN.md §13). These frames carry the
// fencing epoch so a deposed leader's buffered appends are rejected by
// every follower.
const (
	// reqReplicate ships a leader's log suffix to a follower: topic,
	// partition, epoch, base offset, then count × (key, value,
	// appendedAtNs).
	reqReplicate byte = 22
	// reqSetRole installs a partition's replication role: topic,
	// partition, follower flag, epoch, leader hint. Answered with respOK.
	reqSetRole byte = 23
	// reqHighWater asks for a partition's high watermark (replication lag
	// probes).
	reqHighWater byte = 24
	// Type 25 is unassigned; a server answers it, like any type it does
	// not know, with respError.

	// respReplicate carries the follower's new high watermark.
	respReplicate byte = 122
	// respHighWater carries the partition high watermark.
	respHighWater byte = 123
)

// protocolVersion is what a hello announces: v2 brought correlation IDs,
// pipelining and batched produce, v3 one fetch frame per poll. Either side
// refuses a peer that announces a lower version.
const protocolVersion = 3

// A reqFetch carries a whole poll: topic, max, a read count, then that
// many (partition u32, offset u64). Its respFetch answers the reads in
// request order until max records are read, one section per read: the
// partition u32 and a status byte — fetchOK, then a record count u32, the
// base offset u64 and count × (appendedAtNs u64, key, value), or
// fetchFailed, then the error string. Record i of a section sits at
// offset base+i, in the request's topic.
const (
	fetchOK     byte = 0
	fetchFailed byte = 1
	// fetchReadSize is one (partition, offset) read of a reqFetch, and
	// maxFetchReads bounds them: a poll reads each partition once.
	fetchReadSize = 12
	maxFetchReads = 1 << 10
)

// DefaultMaxFrameSize bounds a single frame to defend against corrupt
// lengths. Both Server and Dial accept an override (ServerConfig /
// DialConfig MaxFrameSize) — batch frames at large windows can outgrow
// the default, and tests shrink it to exercise rejection.
const DefaultMaxFrameSize = 8 << 20

// Fixed layout sizes, cross-checked against the encoders by
// cad3-vet's wirelayout analyzer.
const (
	// helloBodySize is the fixed hello payload: version u32, max frame
	// u32, window u32.
	helloBodySize = 12
	// corrSize is the width of the correlation ID that follows the type
	// byte on every frame but the hello's.
	corrSize = 4
	// frameHeaderSize precedes every payload but the hello's: length
	// prefix, type byte, correlation ID.
	frameHeaderSize = 4 + 1 + corrSize
	// batchOKResultSize is one successful per-record result in a
	// respProduceBatch: status byte, partition u32, offset u64.
	batchOKResultSize = 13
)

// errFrameTooLarge is returned when a peer announces an oversized frame.
var errFrameTooLarge = errors.New("stream: frame exceeds max size")

// putHello writes the fixed hello body into b (len >= helloBodySize).
func putHello(b []byte, version, maxFrame, window uint32) {
	binary.BigEndian.PutUint32(b[0:], version)
	binary.BigEndian.PutUint32(b[4:], maxFrame)
	binary.BigEndian.PutUint32(b[8:], window)
}

// helloFrame encodes a whole hello frame — reqHello from a client,
// respHello from a server — which carries no correlation ID.
func helloFrame(msgType byte, version, maxFrame, window uint32) []byte {
	f := make([]byte, 4+1+helloBodySize)
	binary.BigEndian.PutUint32(f, 1+helloBodySize)
	f[4] = msgType
	putHello(f[5:], version, maxFrame, window)
	return f
}

// readHelloBody parses the fixed hello body written by putHello.
func readHelloBody(b []byte) (version, maxFrame, window uint32) {
	version = binary.BigEndian.Uint32(b[0:])
	maxFrame = binary.BigEndian.Uint32(b[4:])
	window = binary.BigEndian.Uint32(b[8:])
	return
}

// putBatchOK writes one successful batch result into b
// (len >= batchOKResultSize).
func putBatchOK(b []byte, part int32, off int64) {
	b[0] = batchStatusOK
	binary.BigEndian.PutUint32(b[1:], uint32(part))
	binary.BigEndian.PutUint64(b[5:], uint64(off))
}

// Per-record batch result status codes.
const (
	batchStatusOK           byte = 0 // followed by partition u32, offset u64
	batchStatusBackpressure byte = 1 // followed by retry-after hint u64 (µs)
	batchStatusError        byte = 2 // followed by an error string
)

type wireEncoder struct {
	buf []byte
	// corr is stamped after the type byte on reset: the server sets it per
	// request, the client per issue.
	corr uint32
}

func (e *wireEncoder) reset(msgType byte) {
	e.buf = binary.BigEndian.AppendUint32(append(e.buf[:0], 0, 0, 0, 0, msgType), e.corr)
}

// byte1 appends a single raw byte.
func (e *wireEncoder) byte1(v byte) { e.buf = append(e.buf, v) }

func (e *wireEncoder) u32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

func (e *wireEncoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *wireEncoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *wireEncoder) str(s string) { e.bytes([]byte(s)) }

// frame finalises the frame, patching the length prefix, and returns the
// wire bytes (valid until the next reset).
func (e *wireEncoder) frame() []byte {
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	return e.buf
}

type wireDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *wireDecoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.pos+4 > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

// byte1 reads a single raw byte (e.g. a batch-result status).
func (d *wireDecoder) byte1() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *wireDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

// raw returns a zero-copy view of a length-prefixed byte field, valid only
// while the frame buffer is (i.e. before putFrame). Callers that retain
// the data must copy it.
func (d *wireDecoder) raw() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return out
}

func (d *wireDecoder) str() string { return string(d.raw()) }

// orNil returns b, or nil when it is empty: an empty key or value decodes
// as nil.
func orNil(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// release returns the decoder's frame buffer to the pool. Only valid on
// decoders over a whole frame body from readFrame (frameDecoder), after
// every field (including raw views) has been consumed or copied.
func (d *wireDecoder) release() {
	putFrame(d.buf)
	d.buf = nil
	d.pos = 0
}

// frameDecoder decodes a frame body from readFrame, starting past the type
// byte and the correlation ID. It keeps the whole body so that release
// recycles all of it: a view that started past the header would come back
// from the pool too short for the next frame of the same size.
func frameDecoder(frame []byte) wireDecoder {
	return wireDecoder{buf: frame, pos: 1 + corrSize}
}

// readFrame reads one frame body (type byte, then payload) from r into a
// pooled buffer, rejecting frames larger than maxFrame bytes. The body is
// never empty and is valid until the caller hands it — all of it, not a
// view past the type byte — to putFrame. A buffered reader's length prefix
// is read in place; any other reader costs the length buffer, which escapes
// through the interface.
func readFrame(r io.Reader, maxFrame uint32) ([]byte, error) {
	var n uint32
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(4)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		n = binary.BigEndian.Uint32(hdr)
		_, _ = br.Discard(4) // cannot fail: Peek has the bytes buffered
	} else {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, err
		}
		n = binary.BigEndian.Uint32(lenBuf[:])
	}
	if n == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if n > maxFrame {
		return nil, errFrameTooLarge
	}
	body := getFrame(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		putFrame(body)
		return nil, err
	}
	return body, nil
}

// maxBatchRecords bounds one reqProduceBatch frame — a defense against
// corrupt counts, far above what the frame-size bound already admits.
const maxBatchRecords = 1 << 16

// decodeBatchRequest parses a reqProduceBatch payload — topic, partition,
// count, then count × (key, value) — invoking fn per record with
// zero-copy views into the frame; the topic is a view too. It is the
// single decode path for the server handler and the fuzz harness:
// whatever the bytes, it must either error out or visit exactly n
// internally-consistent records without reading past the buffer. Empty
// keys decode as nil (round-robin partitioning).
func decodeBatchRequest(dec *wireDecoder, fn func(i int, key, value []byte)) (topic []byte, partition int32, n int, err error) {
	topic = dec.raw()
	partition = int32(dec.u32())
	n = int(dec.u32())
	if dec.err != nil {
		return nil, 0, 0, dec.err
	}
	if n < 0 || n > maxBatchRecords {
		return nil, 0, 0, fmt.Errorf("stream: implausible batch record count %d", n)
	}
	for i := 0; i < n; i++ {
		key := orNil(dec.raw())
		value := dec.raw()
		if dec.err != nil {
			return nil, 0, 0, dec.err
		}
		if fn != nil {
			fn(i, key, value)
		}
	}
	return topic, partition, n, nil
}

// decodeFetchRequest parses a reqFetch payload — the topic as a view of
// the frame, max, and the reads, appended to reads. It is the server's
// parse and the fuzz harness's: whatever the bytes, it errors out or
// returns exactly the reads the frame holds, their count checked against
// the bytes left before any is read.
func decodeFetchRequest(dec *wireDecoder, reads []PartitionRead) (topic []byte, max int, _ []PartitionRead, err error) {
	topic = dec.raw()
	max = int(dec.u32())
	n := int(dec.u32())
	if dec.err != nil {
		return nil, 0, reads, dec.err
	}
	if n > maxFetchReads || n*fetchReadSize > len(dec.buf)-dec.pos {
		return nil, 0, reads, fmt.Errorf("stream: implausible fetch read count %d", n)
	}
	for i := 0; i < n; i++ {
		reads = append(reads, PartitionRead{Partition: int32(dec.u32()), Offset: int64(dec.u64())})
	}
	return topic, max, reads, nil
}

// decodeReplicateRequest parses a reqReplicate payload — topic,
// partition, epoch, base, count, then count × (key, value, appendedAtNs)
// — invoking fn per record with zero-copy views into the frame. Like
// decodeBatchRequest it is shared between the server handler and the
// fuzz harness: any input either errors out or visits exactly n
// internally-consistent records.
func decodeReplicateRequest(dec *wireDecoder, fn func(i int, rec ReplicaRecord)) (topic string, partition int32, epoch, base int64, n int, err error) {
	topic = dec.str()
	partition = int32(dec.u32())
	epoch = int64(dec.u64())
	base = int64(dec.u64())
	n = int(dec.u32())
	if dec.err != nil {
		return "", 0, 0, 0, 0, dec.err
	}
	if n < 0 || n > maxBatchRecords {
		return "", 0, 0, 0, 0, fmt.Errorf("stream: implausible replicate record count %d", n)
	}
	for i := 0; i < n; i++ {
		key := orNil(dec.raw())
		value := dec.raw()
		atNs := int64(dec.u64())
		if dec.err != nil {
			return "", 0, 0, 0, 0, dec.err
		}
		if fn != nil {
			fn(i, ReplicaRecord{Key: key, Value: value, AppendedAtNs: atNs})
		}
	}
	return topic, partition, epoch, base, n, nil
}

// openSection starts an ok section of a fetch answer for partition and
// returns where it starts: records follow, and closeSection or
// failSection finishes it.
func (e *wireEncoder) openSection(partition int32) int {
	at := len(e.buf)
	e.u32(uint32(partition))
	e.byte1(fetchOK)
	e.u32(0)
	e.u64(0)
	return at
}

// record appends one record of a section.
func (e *wireEncoder) record(m Message) {
	e.u64(uint64(m.AppendedAt.UnixNano()))
	e.bytes(m.Key)
	e.bytes(m.Value)
}

// closeSection patches the section opened at at: n records from base on.
func (e *wireEncoder) closeSection(at, n int, base int64) {
	binary.BigEndian.PutUint32(e.buf[at+5:], uint32(n))
	binary.BigEndian.PutUint64(e.buf[at+9:], uint64(base))
}

// failSection turns the section opened at at into a failed one.
func (e *wireEncoder) failSection(at int, msg string) {
	e.buf = e.buf[:at+4]
	e.byte1(fetchFailed)
	e.str(msg)
}

// walkAnswer walks a fetch answer to reads. With fn nil it is the check,
// over lengths only, that an answer passes before anything of it may be
// lent: its sections answer a prefix of reads in order, hold at most max
// records, and stop short of the reads only once max is met. With fn, over
// an answer that passed, it lends fn each record, decoded once as views of
// the frame (empty fields as nil), sets the Err of each read the broker
// refused, and returns how many records it lent.
func (d *wireDecoder) walkAnswer(topic string, reads []PartitionRead, max int, fn func(Message)) (int, error) {
	want, i := max, 0
	m := Message{Topic: topic}
	for ; d.pos < len(d.buf) && d.err == nil; i++ {
		if i == len(reads) {
			return 0, fmt.Errorf("stream: fetch answer of more sections than its %d reads", len(reads))
		}
		m.Partition = int32(d.u32())
		n, base := 0, int64(0)
		switch d.byte1() {
		case fetchOK:
			n, base = int(d.u32()), int64(d.u64())
		case fetchFailed:
			if failure := d.raw(); fn != nil {
				reads[i].Err = remoteError(string(failure))
			}
		default:
			if d.err == nil {
				d.err = errors.New("stream: bad fetch section status")
			}
		}
		if d.err == nil && m.Partition != reads[i].Partition {
			return 0, fmt.Errorf("stream: fetch answer section %d is partition %d, read %d", i, m.Partition, reads[i].Partition)
		}
		if n > want {
			return 0, fmt.Errorf("stream: fetch answer holds more than the %d records asked for", max)
		}
		want -= n
		for j := 0; j < n && d.err == nil; j++ {
			at, key, value := d.u64(), d.raw(), d.raw()
			if fn != nil {
				m.Offset, m.AppendedAt = base+int64(j), timeFromUnixNano(int64(at))
				m.Key, m.Value = orNil(key), orNil(value)
				fn(m)
			}
		}
	}
	if d.err == nil && i < len(reads) && want > 0 {
		d.err = fmt.Errorf("stream: fetch answer stops at read %d of %d short of %d records", i, len(reads), max)
	}
	return max - want, d.err
}

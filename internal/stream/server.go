package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"cad3/internal/flow"
)

func timeFromUnixNano(nanos int64) time.Time {
	if nanos <= 0 {
		return time.Time{}
	}
	return time.Unix(0, nanos)
}

// ServerConfig tunes a Server beyond the defaults.
type ServerConfig struct {
	// MaxFrameSize bounds a single inbound frame; it is also announced to
	// clients in the hello exchange so they cap their batch frames. Values
	// <= 0 select DefaultMaxFrameSize.
	MaxFrameSize int
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.MaxFrameSize <= 0 {
		cfg.MaxFrameSize = DefaultMaxFrameSize
	}
	return cfg
}

// Server exposes a Broker over TCP using the binary wire protocol. One
// server per RSU mirrors the paper's per-RSU Kafka broker.
type Server struct {
	broker   *Broker
	ln       net.Listener
	maxFrame uint32

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving the broker on addr (e.g. "127.0.0.1:0") and
// returns once the listener is bound. Close shuts it down.
func NewServer(broker *Broker, addr string) (*Server, error) {
	return NewServerCfg(broker, addr, ServerConfig{})
}

// NewServerCfg is NewServer with an explicit config.
func NewServerCfg(broker *Broker, addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream server listen: %w", err)
	}
	return NewServerOnCfg(broker, ln, cfg), nil
}

// NewServerOnCfg serves the broker on an already-bound listener. The
// caller may wrap the listener (e.g. with a fault injector) before
// handing it over; Close closes it.
func NewServerOnCfg(broker *Broker, ln net.Listener, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		broker:   broker,
		ln:       ln,
		maxFrame: uint32(cfg.MaxFrameSize),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes live connections, and waits for all
// connection handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// connState is what one connection's handler reuses from request to
// request.
type connState struct {
	enc   wireEncoder
	recs  []BatchRecord   // the record views of a batch produce
	reads []PartitionRead // the reads of a fetch
	topic string          // the last topic name a request named
	put   func(Message)   // putRecord, bound once
	next  int64           // the offset past the last record put wrote
}

// putRecord writes one record of a fetch answer's open section.
func (cs *connState) putRecord(m Message) {
	cs.next = m.Offset + 1
	cs.enc.record(m)
}

// topicName returns raw as a string, reusing the last one while requests
// keep naming the same topic.
func (cs *connState) topicName(raw []byte) string {
	if string(raw) != cs.topic {
		cs.topic = string(raw)
	}
	return cs.topic
}

// maxKeptBatchRecs bounds the record-view slice a connection keeps between
// batches, so one oversized batch does not pin its slice for the
// connection's life.
const maxKeptBatchRecs = 1 << 12

// dropRecs forgets a handled batch's views — the frame they alias returns
// to the pool — and keeps the slice for the next batch.
func (cs *connState) dropRecs() {
	clear(cs.recs)
	cs.recs = cs.recs[:0]
	if cap(cs.recs) > maxKeptBatchRecs {
		cs.recs = nil
	}
}

// serveConn runs one connection. Its first frame must be a hello
// announcing protocolVersion or later; anything else closes the
// connection before a request is handled. After the answer every frame
// carries a correlation ID that is echoed on its response. Requests are
// handled in order (responses stay in request order — the pipelining win
// is that the client no longer waits a round trip between them), reads
// are buffered, and responses coalesce into one write per burst so a
// saturating client costs one syscall per direction per batch of frames,
// not per request.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	hello, err := readFrame(br, s.maxFrame)
	if err != nil {
		return
	}
	ok := hello[0] == reqHello && len(hello) >= 1+helloBodySize
	if ok {
		clientVersion, _, _ := readHelloBody(hello[1:])
		ok = clientVersion >= protocolVersion
	}
	putFrame(hello)
	if !ok {
		return
	}
	if _, err := conn.Write(helloFrame(respHello, protocolVersion, s.maxFrame, 0)); err != nil {
		return
	}

	const flushThreshold = 64 << 10
	var cs connState
	cs.put = cs.putRecord
	enc := &cs.enc
	var wbuf []byte
	for {
		frame, err := readFrame(br, s.maxFrame)
		if err != nil {
			return // peer closed or protocol error
		}
		if len(frame) < 1+corrSize {
			putFrame(frame)
			return // malformed frame
		}
		enc.corr = binary.BigEndian.Uint32(frame[1:])
		resp, err := s.handle(&cs, frame[0], frame[1+corrSize:])
		if err != nil {
			enc.reset(respError)
			enc.str(errorWireMessage(err))
			resp = enc.frame()
		}
		putFrame(frame) // handle copied what it keeps; resp is enc's buffer
		wbuf = append(wbuf, resp...)
		// Flush when the read side has drained (no more pipelined requests
		// in flight right now) or the write buffer is big enough.
		if br.Buffered() == 0 || len(wbuf) >= flushThreshold {
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
			wbuf = wbuf[:0]
		}
	}
}

func (s *Server) handle(cs *connState, msgType byte, payload []byte) ([]byte, error) {
	enc := &cs.enc
	dec := wireDecoder{buf: payload}
	switch msgType {
	case reqCreateTopic:
		name := dec.str()
		parts := int(dec.u32())
		if dec.err != nil {
			return nil, dec.err
		}
		if err := s.broker.CreateTopic(name, parts); err != nil {
			return nil, err
		}
		enc.reset(respOK)
		return enc.frame(), nil

	case reqProduce:
		topicName := cs.topicName(dec.raw())
		partition := int32(dec.u32())
		// Zero-copy views into the request frame: the broker clones on
		// Produce, and the frame outlives this call.
		key := orNil(dec.raw())
		value := dec.raw()
		if dec.err != nil {
			return nil, dec.err
		}
		part, off, err := s.broker.Produce(topicName, partition, key, value)
		if err != nil {
			return nil, err
		}
		enc.reset(respProduce)
		enc.u32(uint32(part))
		enc.u64(uint64(off))
		return enc.frame(), nil

	case reqProduceBatch:
		// Zero-copy decode: each record's key/value views (into the frame
		// buffer, valid for the whole handle call) collect into the
		// connection's slice, then the broker appends the batch in a single
		// pass — one topic lookup, one clock read, one partition lock per
		// same-partition run — and the per-record results stream into the
		// response frame.
		defer cs.dropRecs()
		topic, partition, n, err := decodeBatchRequest(&dec, func(i int, key, value []byte) {
			cs.recs = append(cs.recs, BatchRecord{Key: key, Value: value})
		})
		if err != nil {
			return nil, err
		}
		topicName := cs.topicName(topic)
		enc.reset(respProduceBatch)
		enc.u32(uint32(n))
		berr := s.broker.ProduceBatch(topicName, partition, cs.recs, func(i int, part int32, off int64, perr error) {
			switch {
			case perr == nil:
				var res [batchOKResultSize]byte
				putBatchOK(res[:], part, off)
				enc.buf = append(enc.buf, res[:]...)
			case errors.Is(perr, flow.ErrBackpressure):
				enc.byte1(batchStatusBackpressure)
				hint, _ := flow.RetryAfter(perr)
				enc.u64(uint64(hint.Microseconds()))
			default:
				enc.byte1(batchStatusError)
				enc.str(perr.Error())
			}
		})
		if berr != nil {
			// Whole-batch refusal (unknown topic, closed broker): every
			// record failed identically, reported per record so the batch
			// response stays well-formed.
			enc.reset(respProduceBatch)
			enc.u32(uint32(n))
			for i := 0; i < n; i++ {
				enc.byte1(batchStatusError)
				enc.str(berr.Error())
			}
		}
		return enc.frame(), nil

	case reqFetch:
		// The reads go in turn, each for what is still wanted, and each
		// answer section is written straight out of the partition log.
		topic, max, reads, err := decodeFetchRequest(&dec, cs.reads[:0])
		if cs.reads = reads; err != nil {
			return nil, err
		}
		topicName := cs.topicName(topic)
		enc.reset(respFetch)
		for _, r := range reads {
			if max <= 0 {
				break
			}
			at := enc.openSection(r.Partition)
			cs.next = r.Offset
			n, err := s.broker.FetchEach(topicName, r.Partition, r.Offset, max, cs.put)
			if err != nil {
				enc.failSection(at, errorWireMessage(err))
				continue
			}
			enc.closeSection(at, n, cs.next-int64(n))
			max -= n
		}
		return enc.frame(), nil

	case reqPartitionCount:
		topicName := dec.str()
		if dec.err != nil {
			return nil, dec.err
		}
		n, err := s.broker.PartitionCount(topicName)
		if err != nil {
			return nil, err
		}
		enc.reset(respPartitionCount)
		enc.u32(uint32(n))
		return enc.frame(), nil

	case reqListTopics:
		topics := s.broker.Topics()
		enc.reset(respListTopics)
		enc.u32(uint32(len(topics)))
		for _, t := range topics {
			enc.str(t)
		}
		return enc.frame(), nil

	case reqReplicate:
		// Zero-copy record views into the frame; ReplicaAppend clones
		// what it keeps.
		var recs []ReplicaRecord
		topicName, partition, epoch, base, _, err := decodeReplicateRequest(&dec, func(i int, rec ReplicaRecord) {
			recs = append(recs, rec)
		})
		if err != nil {
			return nil, err
		}
		hwm, err := s.broker.ReplicaAppend(topicName, partition, epoch, base, recs)
		if err != nil {
			return nil, err
		}
		enc.reset(respReplicate)
		enc.u64(uint64(hwm))
		return enc.frame(), nil

	case reqSetRole:
		topicName := dec.str()
		partition := int32(dec.u32())
		follower := dec.byte1() != 0
		epoch := int64(dec.u64())
		leaderHint := dec.str()
		if dec.err != nil {
			return nil, dec.err
		}
		if err := s.broker.SetPartitionRole(topicName, partition, follower, epoch, leaderHint); err != nil {
			return nil, err
		}
		enc.reset(respOK)
		return enc.frame(), nil

	case reqHighWater:
		topicName := dec.str()
		partition := int32(dec.u32())
		if dec.err != nil {
			return nil, dec.err
		}
		hwm, err := s.broker.HighWaterMark(topicName, partition)
		if err != nil {
			return nil, err
		}
		enc.reset(respHighWater)
		enc.u64(uint64(hwm))
		return enc.frame(), nil

	default:
		return nil, fmt.Errorf("stream: unknown request type %d", msgType)
	}
}

// TCPClient is a Client speaking the wire protocol to a Server. It runs
// pipelined: a dedicated reader goroutine matches responses to in-flight
// requests through a correlation-ID ring, so concurrent callers multiplex
// the one connection instead of serializing a round trip each — see
// pipeline.go.
type TCPClient struct {
	mu   sync.Mutex
	conn net.Conn
	enc  wireEncoder

	// maxFrame bounds inbound response frames; peerMax is the server's
	// announced inbound limit that batch flushes must stay under.
	maxFrame uint32
	peerMax  uint32
	timeout  time.Duration
	closed   bool

	// Reused vectored-write scratch for batch flushes (guarded by mu).
	// WriteTo consumes the buffers it is called on, so it runs on sent, a
	// copy of iov: iov keeps the backing array for the next batch.
	iov   net.Buffers
	sent  net.Buffers
	arena []byte

	pipe *pipeState
}

var _ Client = (*TCPClient)(nil)

// DialTimeout is the TCP connect timeout.
const DialTimeout = 5 * time.Second

// DefaultWindow is the default in-flight request window of a pipelined
// connection.
const DefaultWindow = 32

// maxWindow bounds the correlation ring (and so per-connection memory).
const maxWindow = 1024

// DialConfig tunes a TCP client. The zero value selects DefaultWindow
// in-flight requests and DefaultMaxFrameSize frames.
type DialConfig struct {
	// Window caps in-flight pipelined requests on the connection. Values
	// <= 0 select DefaultWindow; values above maxWindow are clamped.
	Window int
	// MaxFrameSize bounds inbound frames and is announced to the server.
	// Values <= 0 select DefaultMaxFrameSize.
	MaxFrameSize int
	// RequestTimeout bounds each request round trip, the hello's
	// included. A timeout poisons the link (responses would no longer line
	// up), so the connection is closed and every in-flight request errors;
	// the pool's breaker turns that into a trip. Zero disables, except for
	// the hello, which DialTimeout then bounds.
	RequestTimeout time.Duration
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Window > maxWindow {
		cfg.Window = maxWindow
	}
	if cfg.MaxFrameSize <= 0 {
		cfg.MaxFrameSize = DefaultMaxFrameSize
	}
	return cfg
}

// Dial connects to a stream server and exchanges hellos.
func Dial(addr string) (*TCPClient, error) {
	return DialCfg(addr, DialConfig{})
}

// DialCfg is Dial with an explicit config.
func DialCfg(addr string, cfg DialConfig) (*TCPClient, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("stream dial %s: %w", addr, err)
	}
	return newTCPClient(conn, cfg)
}

// Close closes the connection, stops the reader goroutine and fails every
// in-flight request.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.pipe.stop)
	err := c.conn.Close()
	<-c.pipe.done // reader exited; no more slot deliveries
	return err
}

// errorWireMessage renders a handler error for the wire. Backpressure
// refusals additionally carry their live retry-after hint, so the remote
// producer's pacer backs off by the broker's estimate rather than a guess.
func errorWireMessage(err error) string {
	if errors.Is(err, flow.ErrBackpressure) {
		if hint, ok := flow.RetryAfter(err); ok {
			return fmt.Sprintf("%s retry-after-us=%d", flow.ErrBackpressure.Error(), hint.Microseconds())
		}
	}
	// Not-leader refusals keep their leader hint (already rendered by
	// Error) and gain the retry-after estimate, so a failed-over remote
	// producer learns both where to go and how long to wait.
	if errors.Is(err, ErrNotLeader) {
		msg := err.Error()
		if hint, ok := flow.RetryAfter(err); ok && hint > 0 {
			msg = fmt.Sprintf("%s retry-after-us=%d", msg, hint.Microseconds())
		}
		return msg
	}
	return err.Error()
}

// remoteBackpressure is the client-side reconstruction of a broker's
// backpressure refusal: it matches flow.ErrBackpressure and carries the
// hint parsed off the wire.
type remoteBackpressure struct {
	hint time.Duration
}

func (e *remoteBackpressure) Error() string             { return flow.ErrBackpressure.Error() + " (remote)" }
func (e *remoteBackpressure) Is(target error) bool      { return target == flow.ErrBackpressure }
func (e *remoteBackpressure) RetryAfter() time.Duration { return e.hint }

// remoteFailure is a generic server-side error relayed over the wire.
// Its type matters to the connection pool: a remoteFailure means the
// link delivered a response (the transport is healthy), so it must not
// count against the link's circuit breaker.
type remoteFailure struct{ msg string }

func (e *remoteFailure) Error() string { return "stream remote: " + e.msg }

// remoteError maps server-side sentinel messages back to matchable errors.
func remoteError(msg string) error {
	if bp := flow.ErrBackpressure.Error(); len(msg) >= len(bp) && msg[:len(bp)] == bp {
		e := &remoteBackpressure{}
		if i := strings.Index(msg, "retry-after-us="); i >= 0 {
			if us, err := strconv.ParseInt(msg[i+len("retry-after-us="):], 10, 64); err == nil {
				e.hint = time.Duration(us) * time.Microsecond
			}
		}
		return e
	}
	if nl := ErrNotLeader.Error(); strings.HasPrefix(msg, nl) {
		// Reconstruct the leader hint and retry-after estimate, so
		// LeaderHint and flow.RetryAfter work on the client side too.
		return parseNotLeader(msg)
	}
	for _, sentinel := range []error{
		ErrTopicExists, ErrUnknownTopic, ErrBadPartition,
		ErrBrokerClosed, ErrPartitionDown, ErrValueTooLarge,
		ErrEmptyTopicName, ErrFencedEpoch, ErrOffsetGap,
	} {
		if len(msg) >= len(sentinel.Error()) && msg[:len(sentinel.Error())] == sentinel.Error() {
			return fmt.Errorf("%w (remote: %s)", sentinel, msg)
		}
	}
	return &remoteFailure{msg: msg}
}

// CreateTopic implements Client.
func (c *TCPClient) CreateTopic(name string, partitions int) error {
	_, dec, err := c.pipeDo(reqCreateTopic, func(enc *wireEncoder) {
		enc.str(name)
		enc.u32(uint32(partitions))
	})
	if err != nil {
		return err
	}
	dec.release()
	return nil
}

// Produce implements Client. Explicit body (no pipeDo closure): this is
// the per-record hot path and a capturing closure would cost an allocation
// per send.
//
//cad3:noalloc
func (c *TCPClient) Produce(topicName string, partition int32, key, value []byte) (int32, int64, error) {
	p := c.pipe
	ch, err := p.acquire()
	if err != nil {
		return 0, 0, err
	}
	c.mu.Lock()
	if err := c.pipeIssueLocked(ch, reqProduce); err != nil {
		c.mu.Unlock()
		p.release(ch)
		return 0, 0, err
	}
	c.enc.str(topicName)
	c.enc.u32(uint32(partition))
	c.enc.bytes(key)
	c.enc.bytes(value)
	err = c.pipeWriteLocked()
	c.mu.Unlock()
	if err != nil {
		p.abandon(ch)
		return 0, 0, err
	}
	msgType, dec, err := c.pipeAwait(ch)
	if err != nil {
		return 0, 0, err
	}
	if msgType != respProduce {
		dec.release()
		return 0, 0, errUnexpectedResponse(msgType)
	}
	part := int32(dec.u32())
	off := int64(dec.u64())
	err = dec.err
	dec.release()
	return part, off, err
}

// Fetch reads up to max messages from offset, as clones the caller owns:
// a FetchEach of one read. Client reads are lent (FetchEach).
func (c *TCPClient) Fetch(topicName string, partition int32, offset int64, max int) ([]Message, error) {
	reads := []PartitionRead{{Partition: partition, Offset: offset}}
	var msgs []Message
	c.FetchEach(topicName, reads, max, func(m Message) { msgs = append(msgs, m.owning()) })
	return msgs, reads[0].Err
}

// ListTopics implements Client.
func (c *TCPClient) ListTopics() ([]string, error) {
	_, dec, err := c.pipeDo(reqListTopics, nil)
	if err != nil {
		return nil, err
	}
	n := int(dec.u32())
	if dec.err != nil || n < 0 || n > 1<<20 {
		dec.release()
		return nil, fmt.Errorf("stream: implausible topic count %d", n)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, dec.str())
	}
	err = dec.err
	dec.release()
	return out, err
}

// PartitionCount implements Client.
func (c *TCPClient) PartitionCount(topicName string) (int, error) {
	_, dec, err := c.pipeDo(reqPartitionCount, func(enc *wireEncoder) {
		enc.str(topicName)
	})
	if err != nil {
		return 0, err
	}
	n := int(dec.u32())
	err = dec.err
	dec.release()
	return n, err
}

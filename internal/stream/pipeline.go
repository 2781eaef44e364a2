package stream

// Client-side windowed pipelining. A TCPClient decouples
// request issue from response read: callers encode and write their frame
// under the client mutex (fixing the on-wire order), park a response
// channel in a FIFO ring, and block on that channel alone while other
// callers keep the connection busy. A dedicated reader goroutine
// matches each inbound frame to the oldest waiter — responses arrive in
// request order because the server handles frames sequentially — and
// verifies the echoed correlation ID as an integrity check. The in-flight
// window is a token semaphore sized at DialConfig.Window.
//
// See DESIGN.md §12 for the full protocol and failure semantics.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"
)

// errPipeBroken wraps the first terminal error of a pipelined connection;
// every in-flight and subsequent request fails with it.
var errPipeBroken = errors.New("stream: pipelined connection broken")

// errUnexpectedResponse is the cold-path constructor for a response
// frame of the wrong type — a protocol violation, hoisted out of the
// //cad3:noalloc request bodies.
func errUnexpectedResponse(msgType byte) error {
	return fmt.Errorf("stream: unexpected response type %d", msgType)
}

// pipeResp is one response delivered to a waiter: the whole pooled frame
// body (type byte, correlation ID, payload), which the waiter releases.
type pipeResp struct {
	frame []byte
	err   error
}

// pipeWaiter is one in-flight request: the correlation ID it was issued
// under and the channel its response is delivered on.
type pipeWaiter struct {
	corr uint32
	ch   chan pipeResp
}

// pipeState is the pipelining machinery of one TCPClient.
type pipeState struct {
	// window is the in-flight token semaphore: issue acquires, await
	// releases after the response channel is drained and recycled.
	window chan struct{}
	// free recycles response channels; holding a window token guarantees
	// a receive cannot block (channels return before tokens).
	free chan chan pipeResp
	// stop is closed by Close; the reader goroutine exits on it and
	// issuers refuse instead of blocking on a dead window.
	stop chan struct{}
	// done is closed by the reader goroutine on exit.
	done chan struct{}
	// br buffers the connection for the reader.
	br *bufio.Reader

	mu   sync.Mutex
	next uint32       // next correlation ID
	ring []pipeWaiter // FIFO of in-flight waiters, capacity = window
	head uint32       // ring read index (reader)
	tail uint32       // ring write index (issuers)
	err  error        // first terminal error; set once, then sticky
}

// newPipeState sizes the machinery for a window of w in-flight requests.
func newPipeState(conn net.Conn, w int) *pipeState {
	p := &pipeState{
		window: make(chan struct{}, w),
		free:   make(chan chan pipeResp, w),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		br:     bufio.NewReaderSize(conn, 64<<10),
		ring:   make([]pipeWaiter, w),
	}
	for i := 0; i < w; i++ {
		p.window <- struct{}{}
		p.free <- make(chan pipeResp, 1)
	}
	return p
}

// newTCPClient exchanges hellos on a fresh connection and starts its
// reader. Anything but a respHello announcing protocolVersion or later
// fails the dial. The exchange is bounded by RequestTimeout, or by
// DialTimeout when that is unset: a peer that accepts and never answers
// must not hang the dial (nor a pool's lazy redial, which holds its link's
// lock).
func newTCPClient(conn net.Conn, cfg DialConfig) (*TCPClient, error) {
	cfg = cfg.withDefaults()
	c := &TCPClient{
		conn:     conn,
		maxFrame: uint32(cfg.MaxFrameSize),
		timeout:  cfg.RequestTimeout,
	}
	bound := cfg.RequestTimeout
	if bound <= 0 {
		bound = DialTimeout
	}
	_ = conn.SetDeadline(time.Now().Add(bound))
	if _, err := conn.Write(helloFrame(reqHello, protocolVersion, c.maxFrame, uint32(cfg.Window))); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream hello write: %w", err)
	}
	frame, err := readFrame(conn, c.maxFrame)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream hello read: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	var version uint32
	if frame[0] == respHello && len(frame) >= 1+helloBodySize {
		version, c.peerMax, _ = readHelloBody(frame[1:])
	}
	msgType := frame[0]
	putFrame(frame)
	if version < protocolVersion {
		_ = conn.Close()
		return nil, fmt.Errorf("stream hello: peer does not speak protocol v%d (response type %d, version %d)", protocolVersion, msgType, version)
	}
	if c.peerMax == 0 {
		c.peerMax = c.maxFrame
	}
	c.pipe = newPipeState(conn, cfg.Window)
	go c.readLoop()
	return c, nil
}

// readLoop is the dedicated reader of a pipelined connection: it owns the
// read side, delivering each response frame to the oldest in-flight
// waiter. It exits when the connection dies or Close fires the stop
// channel (Close also closes the conn, so the blocking read returns), and
// fails every parked waiter on the way out so no caller hangs.
func (c *TCPClient) readLoop() {
	p := c.pipe
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			p.fail(ErrClientClosed)
			return
		default:
		}
		frame, err := readFrame(p.br, c.maxFrame)
		if err != nil {
			select {
			case <-p.stop:
				err = ErrClientClosed
			default:
			}
			p.fail(err)
			return
		}
		if len(frame) < 1+corrSize {
			putFrame(frame)
			p.fail(errors.New("stream: frame missing correlation ID"))
			_ = c.conn.Close()
			return
		}
		corr := binary.BigEndian.Uint32(frame[1:])
		p.mu.Lock()
		if p.head == p.tail {
			p.mu.Unlock()
			putFrame(frame)
			p.fail(errors.New("stream: response with no request in flight"))
			_ = c.conn.Close()
			return
		}
		w := p.ring[p.head%uint32(len(p.ring))]
		p.head++
		p.mu.Unlock()
		if w.corr != corr {
			putFrame(frame)
			w.ch <- pipeResp{err: fmt.Errorf("stream: correlation mismatch: got %d want %d", corr, w.corr)}
			p.fail(errors.New("stream: correlation mismatch"))
			_ = c.conn.Close()
			return
		}
		w.ch <- pipeResp{frame: frame}
	}
}

// fail marks the pipe broken and delivers the error to every parked
// waiter. Idempotent; the first error wins. The waiters are unparked
// under the lock but delivered to after it: each response channel is
// buffered for exactly one outstanding response, so the sends cannot
// block — but keeping them outside the critical section means even a
// misbehaving waiter can only stall fail, never every issuer parked on
// p.mu.
func (p *pipeState) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	sticky := p.err
	var failed []pipeWaiter
	for p.head != p.tail {
		failed = append(failed, p.ring[p.head%uint32(len(p.ring))])
		p.head++
	}
	p.mu.Unlock()
	for _, w := range failed {
		w.ch <- pipeResp{err: sticky}
	}
}

// acquire takes a window token and a recycled response channel, waiting
// for the token while the window is full. It refuses immediately once the
// pipe is stopped or broken.
//
//cad3:noalloc
func (p *pipeState) acquire() (chan pipeResp, error) {
	select {
	case <-p.window:
	default:
		select {
		case <-p.window:
		case <-p.stop:
			return nil, ErrClientClosed
		}
	}
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	if err != nil {
		p.window <- struct{}{}
		return nil, p.brokenErr(err)
	}
	// Guaranteed non-blocking: channels outnumber outstanding tokens.
	ch := <-p.free
	return ch, nil
}

// release recycles the response channel (which must be drained) and
// returns the window token, in that order — so a token holder always
// finds a free channel.
//
//cad3:noalloc
func (p *pipeState) release(ch chan pipeResp) {
	p.free <- ch
	p.window <- struct{}{}
}

// abandon gives up on an enqueued request whose frame could not be written
// or whose answer timed out: the connection is closed and the reader's fail
// path still delivers to ch, so it is drained before it and its token recycle.
//
//cad3:noalloc
func (p *pipeState) abandon(ch chan pipeResp) {
	if r := <-ch; r.frame != nil {
		putFrame(r.frame)
	}
	p.release(ch)
}

// brokenErr wraps a terminal pipe error unless it is already a clean
// close.
func (p *pipeState) brokenErr(err error) error {
	if errors.Is(err, ErrClientClosed) {
		return ErrClientClosed
	}
	return fmt.Errorf("%w: %w", errPipeBroken, err)
}

// enqueue parks the waiter in the FIFO ring and returns the correlation
// ID assigned to it. Must be called with c.mu held (the caller writes the
// frame before unlocking, so ring order equals wire order).
//
//cad3:noalloc
func (p *pipeState) enqueue(ch chan pipeResp) (uint32, error) {
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return 0, p.brokenErr(err)
	}
	corr := p.next
	p.next++
	p.ring[p.tail%uint32(len(p.ring))] = pipeWaiter{corr: corr, ch: ch}
	p.tail++
	p.mu.Unlock()
	return corr, nil
}

// pipeIssueLocked starts a request under c.mu with a channel from acquire:
// it parks the channel in the ring and starts the frame in c.enc under its
// correlation ID; the caller encodes the body and writes it before
// unlocking, so ring order is wire order.
func (c *TCPClient) pipeIssueLocked(ch chan pipeResp, msgType byte) error {
	if c.closed {
		return ErrClientClosed
	}
	corr, err := c.pipe.enqueue(ch)
	if err != nil {
		return err
	}
	c.enc.corr = corr
	c.enc.reset(msgType)
	return nil
}

// pipeWriteLocked flushes the encoded frame under c.mu. A write error
// poisons the connection: responses can no longer line up, so the conn is
// closed and the reader fails every waiter (including ours).
func (c *TCPClient) pipeWriteLocked() error {
	if _, err := c.conn.Write(c.enc.frame()); err != nil {
		_ = c.conn.Close()
		return fmt.Errorf("stream write: %w", err)
	}
	return nil
}

// pipeAwait blocks for the response on ch and recycles the channel and
// window token. On timeout the connection is poisoned (a late response
// would desynchronize the ring) and the reader's fail path still delivers
// to ch, keeping the channel clean before it is recycled.
func (c *TCPClient) pipeAwait(ch chan pipeResp) (byte, wireDecoder, error) {
	var r pipeResp
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		select {
		case r = <-ch:
			timer.Stop()
		case <-timer.C:
			_ = c.conn.Close() // reader fails all waiters, including ours
			c.pipe.abandon(ch)
			return 0, wireDecoder{}, fmt.Errorf("stream: request timed out after %v", c.timeout)
		}
	} else {
		r = <-ch
	}
	c.pipe.release(ch)
	if r.err != nil {
		return 0, wireDecoder{}, c.pipe.brokenErr(r.err)
	}
	dec := frameDecoder(r.frame)
	if r.frame[0] == respError {
		msg := dec.str()
		dec.release()
		return 0, wireDecoder{}, remoteError(msg)
	}
	return r.frame[0], dec, nil
}

// pipeDo runs one request/response cycle. encodeLocked writes the
// request body into c.enc (called with c.mu held, after the type byte and
// correlation ID are in place).
func (c *TCPClient) pipeDo(msgType byte, encodeLocked func(enc *wireEncoder)) (byte, wireDecoder, error) {
	p := c.pipe
	ch, err := p.acquire()
	if err != nil {
		return 0, wireDecoder{}, err
	}
	c.mu.Lock()
	if err := c.pipeIssueLocked(ch, msgType); err != nil {
		c.mu.Unlock()
		p.release(ch)
		return 0, wireDecoder{}, err
	}
	if encodeLocked != nil {
		encodeLocked(&c.enc)
	}
	err = c.pipeWriteLocked()
	c.mu.Unlock()
	if err != nil {
		p.abandon(ch)
		return 0, wireDecoder{}, err
	}
	return c.pipeAwait(ch)
}

// FetchEach implements Client in one round trip: one reqFetch frame
// carries every read, and the server answers them in order until max
// records are read, as reads in turn would. The answer is checked whole
// before its first record is lent, so a cut or malformed answer lends
// nothing and fails every read; otherwise each record is decoded once, as
// views of the frame, and each read the broker refused gets its error.
// Explicit body, like Produce: a pipeDo closure would cost an allocation
// per fetch.
//
//cad3:noalloc
func (c *TCPClient) FetchEach(topic string, reads []PartitionRead, max int, fn func(Message)) int {
	if len(reads) == 0 || max <= 0 {
		return 0
	}
	max = min(max, math.MaxInt32)
	p := c.pipe
	ch, err := p.acquire()
	if err != nil {
		return failReads(reads, err)
	}
	c.mu.Lock()
	if err := c.pipeIssueLocked(ch, reqFetch); err != nil {
		c.mu.Unlock()
		p.release(ch)
		return failReads(reads, err)
	}
	c.enc.str(topic)
	c.enc.u32(uint32(max))
	c.enc.u32(uint32(len(reads)))
	for _, r := range reads {
		c.enc.u32(uint32(r.Partition))
		c.enc.u64(uint64(r.Offset))
	}
	err = c.pipeWriteLocked()
	c.mu.Unlock()
	if err != nil {
		p.abandon(ch)
		return failReads(reads, err)
	}
	msgType, dec, err := c.pipeAwait(ch)
	if err != nil {
		return failReads(reads, err)
	}
	start := dec.pos
	if msgType != respFetch {
		err = errUnexpectedResponse(msgType)
	} else {
		_, err = dec.walkAnswer(topic, reads, max, nil)
	}
	if err != nil {
		dec.release()
		return failReads(reads, err)
	}
	dec.pos = start
	n, _ := dec.walkAnswer(topic, reads, max, fn)
	dec.release()
	return n
}

// failReads fails every read of a fetch with err, and lends nothing.
func failReads(reads []PartitionRead, err error) int {
	for i := range reads {
		reads[i].Err = err
	}
	return 0
}

package stream

// Connection multiplexing. A city's worth of emulated vehicles sharing
// one RSU must not each hold a TCP connection: the PoolClient gives them
// a small pool of pipelined connections per broker address. Records with
// a key stick to one link (key-hash affinity preserves the per-key
// ordering the broker's partitioner relies on); keyless requests
// round-robin. Each link carries its own circuit breaker: consecutive
// transport failures trip it, traffic shifts to the surviving links, and
// half-open probes re-admit the link once it answers again. With every
// link open the pool returns flow.ErrCircuitOpen — the signal that
// drives the sender's pacer to its floor (flow.Pacer.Floor).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cad3/internal/flow"
	"cad3/internal/obsv"
)

// DefaultPoolSize is the default number of pooled connections per broker
// address — small on purpose: two pipelined links saturate a broker long
// before two hundred synchronous ones would.
const DefaultPoolSize = 2

// PoolConfig tunes a PoolClient.
type PoolConfig struct {
	// Size is the number of pooled connections. Values <= 0 select
	// DefaultPoolSize.
	Size int
	// Dial configures each pooled connection (window, frame limit,
	// request timeout).
	Dial DialConfig
	// Breaker configures each link's circuit breaker (threshold,
	// cooldown, clock). Metrics and Name are overridden by the pool so
	// all links aggregate into the wire.breaker family.
	Breaker flow.BreakerConfig
	// Metrics, when set, receives the wire.* counters/gauges and the
	// wire.breaker.* family.
	Metrics *obsv.Registry
}

func (cfg PoolConfig) withDefaults() PoolConfig {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	return cfg
}

// poolLink is one pooled connection plus its breaker. conn is nil when
// the last use tore it down; the next admitted request redials lazily.
type poolLink struct {
	mu sync.Mutex
	c  *TCPClient
	br *flow.Breaker
}

// PoolClient multiplexes Client calls over a pool of
// pipelined connections with per-link circuit breakers. Safe for
// concurrent use — that is its purpose: many vehicle goroutines share
// one pool.
type PoolClient struct {
	connClient // every request runs through do

	addr  string
	dial  DialConfig
	links []*poolLink
	rr    atomic.Uint32

	mu     sync.Mutex
	closed bool

	mRequests, mTransportErrs *obsv.Counter
	mBatches, mBatchRecords   *obsv.Counter
	mInflight                 *obsv.Gauge
}

var _ Client = (*PoolClient)(nil)

// DialPool connects the first pooled link (so a bad address fails fast)
// and prepares the rest for lazy dialing. The wire.* metrics register
// eagerly: a dashboard sees zeros, not absence, before traffic flows.
func DialPool(addr string, cfg PoolConfig) (*PoolClient, error) {
	cfg = cfg.withDefaults()
	p := &PoolClient{
		addr:  addr,
		dial:  cfg.Dial,
		links: make([]*poolLink, cfg.Size),
	}
	p.connClient = connClient{run: p.do}
	brCfg := cfg.Breaker
	brCfg.Metrics = cfg.Metrics
	brCfg.Name = "wire.breaker"
	for i := range p.links {
		p.links[i] = &poolLink{br: flow.NewBreaker(brCfg)}
	}
	if cfg.Metrics != nil {
		p.mRequests = cfg.Metrics.Counter("wire.requests")
		p.mTransportErrs = cfg.Metrics.Counter("wire.transport_errors")
		p.mBatches = cfg.Metrics.Counter("wire.batches")
		p.mBatchRecords = cfg.Metrics.Counter("wire.batch_records")
		p.mInflight = cfg.Metrics.Gauge("wire.inflight")
	}
	c, err := DialCfg(addr, p.dial)
	if err != nil {
		return nil, err
	}
	p.links[0].c = c
	return p, nil
}

// Close closes every pooled connection. Closing twice is a no-op.
func (p *PoolClient) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	var first error
	for _, l := range p.links {
		l.mu.Lock()
		c := l.c
		l.c = nil
		l.mu.Unlock()
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// linkIndex picks the home link: key-hash affinity for keyed requests
// (per-key ordering survives multiplexing), round-robin otherwise.
func (p *PoolClient) linkIndex(key []byte) int {
	if len(key) == 0 {
		return int(p.rr.Add(1)) % len(p.links)
	}
	// FNV-1a, inlined to keep the hot path allocation-free.
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h) % len(p.links)
}

// client returns the link's connection, dialing lazily if a previous
// failure tore it down.
func (l *poolLink) client(addr string, dial DialConfig) (*TCPClient, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c != nil {
		return l.c, nil
	}
	c, err := DialCfg(addr, dial)
	if err != nil {
		return nil, err
	}
	l.c = c
	return c, nil
}

// dropConn tears the link's connection down after a transport failure so
// the next admitted request redials fresh.
func (l *poolLink) dropConn(c *TCPClient) {
	l.mu.Lock()
	if l.c == c {
		l.c = nil
	}
	l.mu.Unlock()
	_ = c.Close()
}

// isRemoteAnswer reports whether the error is an application-level
// response relayed over a healthy link (broker sentinel, backpressure,
// generic remote failure) as opposed to a transport failure. Remote
// answers count as breaker successes: the link delivered them.
func isRemoteAnswer(err error) bool {
	if err == nil {
		return true
	}
	if brokerError(err) {
		return true
	}
	// A not-leader refusal is the broker answering (redirect), not the
	// link failing: it must not open the breaker — the same link will
	// carry the follow-up to the new leader's pool entry.
	if errors.Is(err, ErrNotLeader) {
		return true
	}
	var rf *remoteFailure
	return errors.As(err, &rf)
}

// do runs op on the key's home link, failing over to the next link whose
// breaker admits the request. All breakers open means the address is
// effectively down: flow.ErrCircuitOpen tells the caller's pacer to cut
// to its floor instead of retrying into a dead peer.
//
// A lent read (FetchEach) may fail over only because a fetch answer is
// checked whole (wireDecoder.walkAnswer) before its first message is
// lent: an error never follows a delivered message, so the read repeated
// on the next link lends nothing twice.
func (p *PoolClient) do(key []byte, op func(c *TCPClient) error) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	if p.mRequests != nil {
		p.mRequests.Inc()
	}
	if p.mInflight != nil {
		p.mInflight.Add(1)
		defer p.mInflight.Add(-1)
	}
	start := p.linkIndex(key)
	var lastErr error
	admitted := false
	for i := 0; i < len(p.links); i++ {
		l := p.links[(start+i)%len(p.links)]
		if !l.br.Allow() {
			continue
		}
		admitted = true
		c, err := l.client(p.addr, p.dial)
		if err != nil {
			l.br.OnFailure()
			if p.mTransportErrs != nil {
				p.mTransportErrs.Inc()
			}
			lastErr = err
			continue
		}
		err = op(c)
		if isRemoteAnswer(err) {
			l.br.OnSuccess()
			return err
		}
		l.br.OnFailure()
		if p.mTransportErrs != nil {
			p.mTransportErrs.Inc()
		}
		l.dropConn(c)
		lastErr = err
	}
	if !admitted {
		return flow.ErrCircuitOpen
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("stream pool %s: no usable link", p.addr)
	}
	return lastErr
}

// ProduceBatchInto implements Client and counts the batch. The first
// record's key picks the home link, so a per-vehicle batch stream keeps
// its link affinity.
func (p *PoolClient) ProduceBatchInto(topic string, partition int32, recs []BatchRecord, res []BatchResult) error {
	if p.mBatches != nil && len(res) == len(recs) {
		p.mBatches.Inc()
		p.mBatchRecords.Add(int64(len(recs)))
	}
	return p.connClient.ProduceBatchInto(topic, partition, recs, res)
}

package stream

// SummaryRouter is the cross-shard CO-DATA path of the sharded city
// driver: when a vehicle's journey crosses a shard boundary, the source
// shard forwards the vehicle's prediction summary to the destination
// shard's broker so collaborative detection survives the crossing. The
// router owns one registered Client per destination shard — any Client
// works, including the pooled v2 wire clients (PoolClient), so shards
// can live in other processes — and drains per-destination FIFO queues
// with at-least-once delivery: an entry that fails to produce stays at
// the head of its queue and is retried on the next flush. Exactly-once
// is the receiver's job (the city driver dedups on the entry key), the
// same split the rest of the pipeline uses.
//
// Flushing is explicit: the driver calls Flush, typically scheduled on
// the virtual clock.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cad3/internal/obsv"
)

// ErrUnknownDest reports a Forward to a destination no Register named.
var ErrUnknownDest = errors.New("stream: unknown router destination")

// routerMaxQueue bounds each destination's outstanding queue: a Forward
// past it fails rather than grow without limit.
const routerMaxQueue = 65536

// RouterConfig configures a SummaryRouter.
type RouterConfig struct {
	// Topic is the destination topic; empty selects TopicCoData.
	Topic string
	// Metrics, when set, receives the shard.router.* family.
	Metrics *obsv.Registry
}

// routerDest is one destination shard's client and FIFO backlog. The
// queued entries' bytes are copies in arena, back to back in queue
// order; a flush that empties the queue empties the arena for reuse.
type routerDest struct {
	client Client
	queue  []routedEntry
	arena  []byte
}

// routedEntry is one queued summary: views of its destination's arena.
type routedEntry struct {
	key, value []byte
}

// hold copies key and value to the end of the arena and returns the
// entry that keeps their views.
func (d *routerDest) hold(key, value []byte) routedEntry {
	return routedEntry{key: d.copyIn(key), value: d.copyIn(value)}
}

// copyIn appends b to the arena and returns its view there; an empty b
// is nil, as an owned copy of it would be.
func (d *routerDest) copyIn(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	at := len(d.arena)
	d.arena = append(d.arena, b...)
	return d.arena[at:len(d.arena):len(d.arena)]
}

// trim drops the first n entries, delivered, and packs the rest at the
// front of the arena in order. Each survivor lies at or past its new
// place — in this array or, copied at a growth, an earlier one — so no
// copy overwrites a survivor still to move.
func (d *routerDest) trim(n int) {
	d.queue = append(d.queue[:0], d.queue[n:]...)
	d.arena = d.arena[:0]
	for i, e := range d.queue {
		d.queue[i] = d.hold(e.key, e.value)
	}
}

// flushRound is one destination's share of a flush: the queue as it
// stood when the round began.
type flushRound struct {
	name    string
	client  Client
	entries []routedEntry
}

// SummaryRouter forwards summaries between shard brokers.
type SummaryRouter struct {
	cfg RouterConfig

	mu    sync.Mutex
	dests map[string]*routerDest
	names []string // sorted registration order for deterministic flushes

	// flushing serializes flush rounds without a mutex: r.mu must stay
	// free while Flush produces to destination brokers, or every
	// Forward caller (and the shard.router.pending gauge) stalls for
	// the full network round trip. A Flush that finds a round already
	// in flight returns immediately instead of piling up behind it.
	flushing atomic.Bool
	// rounds is the flush in flight's per-destination snapshots, owned
	// by whoever holds flushing and reused from flush to flush.
	rounds []flushRound

	mForwards, mSent, mRetries, mDropped *obsv.Counter
}

// NewSummaryRouter builds an empty router.
func NewSummaryRouter(cfg RouterConfig) *SummaryRouter {
	if cfg.Topic == "" {
		cfg.Topic = TopicCoData
	}
	r := &SummaryRouter{cfg: cfg, dests: make(map[string]*routerDest)}
	if cfg.Metrics != nil {
		r.mForwards = cfg.Metrics.Counter("shard.router.forwards")
		r.mSent = cfg.Metrics.Counter("shard.router.sent")
		r.mRetries = cfg.Metrics.Counter("shard.router.retries")
		r.mDropped = cfg.Metrics.Counter("shard.router.dropped")
		cfg.Metrics.RegisterGaugeFunc("shard.router.pending", func() int64 {
			return int64(r.Pending())
		})
	}
	return r
}

// Register names a destination shard and the client that reaches its
// broker. Re-registering a name swaps the client (shard failover) and
// keeps the queued backlog.
func (r *SummaryRouter) Register(dest string, client Client) error {
	if dest == "" || client == nil {
		return fmt.Errorf("stream: router destination needs a name and a client")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.dests[dest]; ok {
		d.client = client
		return nil
	}
	r.dests[dest] = &routerDest{client: client}
	// Insertion sort keeps names ordered without re-sorting on Flush.
	i := len(r.names)
	for i > 0 && r.names[i-1] > dest {
		i--
	}
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = dest
	return nil
}

// Forward enqueues one summary for a destination shard. The key and
// value are copied into the destination's arena — callers are free to
// reuse their buffers.
func (r *SummaryRouter) Forward(dest string, key, value []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.dests[dest]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDest, dest)
	}
	if len(d.queue) >= routerMaxQueue {
		if r.mDropped != nil {
			r.mDropped.Inc()
		}
		return fmt.Errorf("stream: router queue for %q full (%d entries)", dest, len(d.queue))
	}
	d.queue = append(d.queue, d.hold(key, value))
	if r.mForwards != nil {
		r.mForwards.Inc()
	}
	return nil
}

// Flush drains every destination queue in name order, preserving each
// queue's FIFO order. A produce failure leaves the failed entry (and
// everything behind it) queued for the next flush, so delivery is
// at-least-once across transient broker outages — e.g. a destination
// shard's leaderless window between a leader kill and the next
// election. Returns the number of entries delivered and the last error.
// A concurrent Flush (periodic flusher racing an explicit caller)
// returns (0, nil) immediately rather than queueing behind the round in
// flight.
func (r *SummaryRouter) Flush() (sent int, err error) {
	if !r.flushing.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer r.flushing.Store(false)

	// Snapshot each backlog under the lock, produce with the lock
	// released, then reconcile. Producing under r.mu held Forward and
	// the pending gauge hostage for the full broker round trip. A
	// snapshot is the queue's own head: Forward only appends past it and
	// only this round trims, so neither the entries nor their arena bytes
	// change under the produce.
	r.mu.Lock()
	rounds := r.rounds[:0]
	for _, name := range r.names {
		d := r.dests[name]
		if len(d.queue) == 0 {
			continue
		}
		rounds = append(rounds, flushRound{
			name:    name,
			client:  d.client,
			entries: d.queue[:len(d.queue):len(d.queue)],
		})
	}
	r.mu.Unlock()
	defer func() {
		clear(rounds)
		r.rounds = rounds[:0]
	}()

	for _, b := range rounds {
		i := 0
		for ; i < len(b.entries); i++ {
			e := b.entries[i]
			if _, _, perr := b.client.Produce(r.cfg.Topic, AutoPartition, e.key, e.value); perr != nil {
				err = fmt.Errorf("router flush to %q: %w", b.name, perr)
				if r.mRetries != nil {
					r.mRetries.Add(int64(len(b.entries) - i))
				}
				break
			}
			sent++
			if r.mSent != nil {
				r.mSent.Inc()
			}
		}
		if i == 0 {
			continue
		}
		// Drop the i delivered entries from the live queue's head.
		// Entries Forwarded during the produce sit behind the snapshot
		// and stay queued; only this round (the flushing latch) trims.
		r.mu.Lock()
		if d, ok := r.dests[b.name]; ok {
			d.trim(i)
		}
		r.mu.Unlock()
	}
	return sent, err
}

// Pending returns the total queued entries across destinations.
func (r *SummaryRouter) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, d := range r.dests {
		n += len(d.queue)
	}
	return n
}

// Close closes every registered client.
func (r *SummaryRouter) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	for _, name := range r.names {
		if cerr := r.dests[name].client.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

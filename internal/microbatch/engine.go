// Package microbatch is a from-scratch micro-batch stream-processing
// engine in the spirit of the Spark Streaming deployment the paper uses:
// a consumer's stream is sliced into fixed-interval batches (50 ms in the
// paper, "to keep the processing latency minimized"), each batch is
// decoded into a plain []T, and a worker pool (the paper configures a
// 6-worker Spark cluster) processes it, a share of the slice per worker.
//
// Step drains and processes exactly one batch synchronously; whoever owns
// the engine decides when it runs (rsu.Node.Run ticks it on the wall
// clock, the discrete-event simulator and the tests call it directly).
package microbatch

import (
	"errors"
	"sync"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
	"cad3/internal/stream"
)

// DefaultInterval is the paper's micro-batch window.
const DefaultInterval = 50 * time.Millisecond

// DefaultWorkers matches the paper's 6-worker Spark cluster.
const DefaultWorkers = 6

// ErrNoHandler is returned by NewEngine when no Process hook is given.
var ErrNoHandler = errors.New("microbatch: config requires a Process handler")

// Poller abstracts the message source (satisfied by *stream.Consumer).
type Poller interface {
	Poll(max int) ([]stream.Message, error)
}

// lendingPoller is the drain path the engine uses (satisfied by
// *stream.Consumer): each message is lent to the decoder where it lies —
// the broker's log or a fetch response frame — instead of being copied out
// for the engine to own and recycle.
type lendingPoller interface {
	PollEach(max int, fn func(stream.Message)) (int, error)
}

// polled drains a plain Poller the same way: the messages Poll returned,
// one after another. They stay the source's; nothing is recycled.
type polled struct{ src Poller }

func (p polled) PollEach(max int, fn func(stream.Message)) (int, error) {
	msgs, err := p.src.Poll(max)
	for _, m := range msgs {
		fn(m)
	}
	return len(msgs), err
}

// Config configures an Engine.
type Config[T any] struct {
	// Source supplies messages. Required. A source that also implements
	// PollEach (like *stream.Consumer) lends its messages to Decode one at
	// a time instead of returning them.
	Source Poller
	// Decode converts a raw message into the item type. Required. The
	// message's Key and Value are borrowed for the call: they may be views
	// of the broker's log or of a network frame, overwritten as soon as
	// Decode returns, so the item must own a copy of anything it keeps
	// (the cad3_checks build poisons a view that is kept). Decode may run
	// under the source's locks and must not call back into the broker.
	Decode func(stream.Message) (T, error)
	// Process handles one worker's share of a batch. Required. It is
	// called concurrently from up to Workers goroutines. The items slice
	// is only valid for the duration of the call (the engine reuses its
	// batch buffer).
	Process func(items []T) error
	// Interval is the batch window. Values <= 0 select DefaultInterval.
	Interval time.Duration
	// Workers is the processing parallelism. Values <= 0 select 6.
	Workers int
	// MaxBatch bounds messages drained per batch. Values <= 0 select 8192.
	MaxBatch int
	// Adaptive, when set, replaces the fixed MaxBatch drain bound with an
	// AIMD controller that sizes each batch toward its latency SLO: after
	// every batch the engine feeds back (drained, processing time) and the
	// next Step drains at most Adaptive.Size() messages. MaxBatch still
	// caps the controller (the engine never drains more than both bounds).
	Adaptive *flow.BatchController
	// Now injects a clock for processing-time measurement. Nil selects
	// time.Now.
	Now func() time.Time
	// Metrics, when set, receives live engine instrumentation: the
	// microbatch.* counters and the per-batch processing-time and
	// batch-size histograms (see OBSERVABILITY.md).
	Metrics *obsv.Registry
}

// BatchStats summarises one processed batch.
type BatchStats struct {
	Records        int
	DecodeErrors   int
	ProcessingTime time.Duration
	// Saturated reports that the batch drained its full bound — there were
	// at least as many messages waiting as the engine was willing to take,
	// the observable sign of backlog at the node.
	Saturated bool
}

// EngineStats aggregates across batches.
type EngineStats struct {
	Batches             int64
	Records             int64
	DecodeErrors        int64
	ProcessErrors       int64
	TotalProcessingTime time.Duration
	MaxProcessingTime   time.Duration
}

// AvgProcessingTime returns the mean per-batch processing time.
func (s EngineStats) AvgProcessingTime() time.Duration {
	if s.Batches == 0 {
		return 0
	}
	return s.TotalProcessingTime / time.Duration(s.Batches)
}

// Engine slices a message stream into micro-batches.
type Engine[T any] struct {
	cfg Config[T]

	mu    sync.Mutex
	stats EngineStats

	// The batch being drained, reused across Step calls (stepMu keeps
	// concurrent Step calls from sharing it). decode is decodeOne, bound
	// once so that handing it to the source allocates nothing per Step; wg
	// awaits the batch's worker goroutines, a field so that a Step with
	// none allocates nothing for it either.
	stepMu     sync.Mutex
	source     lendingPoller
	decode     func(stream.Message)
	items      []T
	decodeErrs int
	wg         sync.WaitGroup

	// Cached registry handles, nil when cfg.Metrics is nil.
	mBatches, mRecords, mDecodeErrs, mProcessErrs *obsv.Counter
	mProcessHist, mBatchSizeHist                  *obsv.Histogram
}

// NewEngine validates the config and builds an engine.
func NewEngine[T any](cfg Config[T]) (*Engine[T], error) {
	if cfg.Source == nil {
		return nil, errors.New("microbatch: config requires a Source")
	}
	if cfg.Decode == nil {
		return nil, errors.New("microbatch: config requires a Decode func")
	}
	if cfg.Process == nil {
		return nil, ErrNoHandler
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8192
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine[T]{cfg: cfg}
	e.decode = e.decodeOne
	if lp, ok := cfg.Source.(lendingPoller); ok {
		e.source = lp
	} else {
		e.source = polled{cfg.Source}
	}
	if cfg.Metrics != nil {
		e.mBatches = cfg.Metrics.Counter("microbatch.batches")
		e.mRecords = cfg.Metrics.Counter("microbatch.records")
		e.mDecodeErrs = cfg.Metrics.Counter("microbatch.decode_errors")
		e.mProcessErrs = cfg.Metrics.Counter("microbatch.process_errors")
		e.mProcessHist = cfg.Metrics.Histogram("microbatch.process_micros", nil)
		e.mBatchSizeHist = cfg.Metrics.Histogram("microbatch.batch_size",
			[]int64{0, 1, 8, 32, 128, 512, 2048, 8192})
	}
	return e, nil
}

// Step drains one batch from the source, decodes it, fans it out over the
// worker pool, and returns the batch stats. A batch with zero records
// still counts as a (trivial) batch.
func (e *Engine[T]) Step() (BatchStats, error) {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()

	limit := e.cfg.MaxBatch
	if e.cfg.Adaptive != nil {
		if a := e.cfg.Adaptive.Size(); a < limit {
			limit = a
		}
	}
	e.items, e.decodeErrs = e.items[:0], 0
	//cad3:allow lockdiscipline stepMu exists to serialize whole Step executions including the poll (the items buffer is reused); parallelism lives in the worker pool below it
	drained, pollErr := e.source.PollEach(limit, e.decode)
	items := e.items
	bs := BatchStats{Records: len(items), DecodeErrors: e.decodeErrs}
	bs.Saturated = drained >= limit && limit > 0

	start := e.cfg.Now()
	if len(items) > 0 {
		e.processParallel(items)
	}
	bs.ProcessingTime = e.cfg.Now().Sub(start)

	if e.cfg.Adaptive != nil {
		// Feed back against the drained count (not the decoded count): a
		// batch that hit the drain bound is saturated even if some records
		// failed to decode.
		e.cfg.Adaptive.Observe(drained, bs.ProcessingTime)
	}

	e.mu.Lock()
	e.stats.Batches++
	e.stats.Records += int64(bs.Records)
	e.stats.DecodeErrors += int64(bs.DecodeErrors)
	e.stats.TotalProcessingTime += bs.ProcessingTime
	if bs.ProcessingTime > e.stats.MaxProcessingTime {
		e.stats.MaxProcessingTime = bs.ProcessingTime
	}
	e.mu.Unlock()

	if e.mBatches != nil {
		e.mBatches.Inc()
		e.mRecords.Add(int64(bs.Records))
		e.mDecodeErrs.Add(int64(bs.DecodeErrors))
		e.mProcessHist.ObserveDuration(bs.ProcessingTime)
		e.mBatchSizeHist.Observe(int64(bs.Records))
	}
	return bs, pollErr
}

// decodeOne is the source's callback: one lent message into the batch.
func (e *Engine[T]) decodeOne(m stream.Message) {
	item, err := e.cfg.Decode(m)
	if err != nil {
		e.decodeErrs++
		return
	}
	e.items = append(e.items, item)
}

// processParallel cuts the items into at most Workers chunks and processes
// the first on the calling goroutine while a goroutine each takes the
// rest: with one worker a Step starts no goroutine.
func (e *Engine[T]) processParallel(items []T) {
	workers := min(e.cfg.Workers, len(items))
	chunk := (len(items) + workers - 1) / workers
	for lo := chunk; lo < len(items); lo += chunk {
		e.wg.Add(1)
		go func(part []T) {
			defer e.wg.Done()
			e.process(part)
		}(items[lo:min(lo+chunk, len(items))])
	}
	e.process(items[:chunk])
	e.wg.Wait()
}

func (e *Engine[T]) process(part []T) {
	if err := e.cfg.Process(part); err != nil {
		e.mu.Lock()
		e.stats.ProcessErrors++
		e.mu.Unlock()
		if e.mProcessErrs != nil {
			e.mProcessErrs.Inc()
		}
	}
}

// Stats returns a snapshot of the aggregate statistics.
func (e *Engine[T]) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Interval returns the configured batch window.
func (e *Engine[T]) Interval() time.Duration { return e.cfg.Interval }

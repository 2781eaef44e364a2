// Package vehicle emulates the connected vehicles of the paper's testbed
// (the "Kafka Producers" and warning consumers on PC1): each vehicle
// replays dataset records to its RSU's IN-DATA topic at 10 Hz and polls
// OUT-DATA every 10 ms for warnings, measuring end-to-end latency.
package vehicle

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cad3/internal/core"
	"cad3/internal/flow"
	"cad3/internal/metrics"
	"cad3/internal/obsv"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// Defaults from the paper's evaluation setup.
const (
	// DefaultSendInterval is the 10 Hz status update period.
	DefaultSendInterval = 100 * time.Millisecond
	// DefaultPollInterval is the warning pull period ("each Kafka
	// consumer pulls every 10 ms to avoid consuming the bandwidth").
	DefaultPollInterval = 10 * time.Millisecond
)

// ErrNoRecords is returned when a vehicle has nothing to replay.
var ErrNoRecords = errors.New("vehicle: no records to replay")

// Config configures one emulated vehicle.
type Config struct {
	// ID is the vehicle's car ID; warnings for other cars are ignored.
	ID trace.CarID
	// Client reaches the serving RSU's broker. Required.
	Client stream.Client
	// Records is the telemetry to replay, in order. Required.
	Records []trace.Record
	// SendInterval overrides the 10 Hz update period.
	SendInterval time.Duration
	// PollInterval overrides the 10 ms warning poll.
	PollInterval time.Duration
	// Loop restarts the replay when the records run out.
	Loop bool
	// Pacing enables send-side congestion response when MaxDecimation > 0:
	// a backpressured send doubles the vehicle's decimation factor (send
	// every k-th sample, drop the rest locally) instead of retrying, and a
	// streak of accepted sends earns the rate back — the AIMD response
	// DSRC congestion control mandates for status-message channels. The
	// zero value leaves the vehicle unpaced (backpressure surfaces as a
	// send error).
	Pacing flow.PacerConfig
	// Now injects the clock. Nil selects time.Now.
	Now func() time.Time
}

// Vehicle is one emulated connected vehicle.
type Vehicle struct {
	cfg      Config
	producer *stream.Producer
	consumer *stream.Consumer
	// pacer is the send-side congestion response (nil = unpaced).
	pacer *flow.Pacer
	// key is the precomputed partitioning key ("car-<id>").
	key []byte
	// buf is the record frame each send encodes into. The broker (in
	// process or over TCP) copies the payload before Send returns, and a
	// vehicle has a single sender goroutine, so one buffer serves every
	// send.
	buf []byte

	sent     atomic.Int64
	received atomic.Int64
	// latencies holds end-to-end warning latencies (send -> receipt),
	// reconstructed at millisecond resolution from the warning body.
	latencies *metrics.LatencyRecorder
	// traced streams the microsecond-precision live breakdowns carried by
	// the wire-format trace context (Tx/Queue/Processing/Dissemination per
	// warning) — the vehicle is both the trace origin (StageSent on send)
	// and terminus (StageDeliver on receipt).
	traced *metrics.BreakdownAccumulator

	// pollMu guards the reused warning-poll scratch buffer.
	pollMu  sync.Mutex
	pollBuf []stream.Message
}

// New validates the config and prepares a vehicle.
func New(cfg Config) (*Vehicle, error) {
	if cfg.Client == nil {
		return nil, errors.New("vehicle: config requires a client")
	}
	if len(cfg.Records) == 0 {
		return nil, ErrNoRecords
	}
	if cfg.SendInterval <= 0 {
		cfg.SendInterval = DefaultSendInterval
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p, err := stream.NewProducer(cfg.Client, stream.TopicInData)
	if err != nil {
		return nil, fmt.Errorf("vehicle %d: %w", cfg.ID, err)
	}
	c, err := stream.NewConsumer(cfg.Client, stream.TopicOutData, 0)
	if err != nil {
		return nil, fmt.Errorf("vehicle %d: %w", cfg.ID, err)
	}
	v := &Vehicle{
		cfg:       cfg,
		producer:  p,
		consumer:  c,
		key:       []byte("car-" + strconv.FormatInt(int64(cfg.ID), 10)),
		latencies: metrics.NewLatencyRecorder(),
		traced:    metrics.NewBreakdownAccumulator(),
		buf:       make([]byte, 0, core.RecordWireSize),
	}
	if cfg.Pacing.MaxDecimation > 0 {
		v.pacer = flow.NewPacer(cfg.Pacing)
	}
	return v, nil
}

// SendNext publishes the record at the given replay index (modulo the
// record count when looping), stamped with the current time so latency is
// measured from transmission. It returns the stamped record.
//
// A paced vehicle (Config.Pacing) may not transmit at all: under an
// elevated decimation factor most samples are dropped locally, and a send
// the broker refuses with backpressure is absorbed — the pacer doubles its
// decimation instead of the vehicle retrying or erroring out. Either way
// the returned error is nil; Sent() tells how many records actually left.
func (v *Vehicle) SendNext(i int) (trace.Record, error) {
	if !v.cfg.Loop && i >= len(v.cfg.Records) {
		return trace.Record{}, ErrNoRecords
	}
	rec := v.cfg.Records[i%len(v.cfg.Records)]
	rec.Car = v.cfg.ID
	rec.TimestampMs = v.cfg.Now().UnixMilli()
	if v.pacer != nil && !v.pacer.Tick() {
		// Locally decimated: the congestion response cuts the channel rate
		// at the source, no traffic reaches the broker.
		return rec, nil
	}
	// The trace context rides the frame's padding: StageSent here,
	// StageArrive at the broker, the rest down the RSU pipeline.
	var tc obsv.TraceContext
	tc.Stamp(obsv.StageSent, v.cfg.Now())
	v.buf = core.AppendRecordTraced(v.buf[:0], rec, tc)
	if _, _, err := v.producer.Send(v.key, v.buf); err != nil {
		if v.pacer != nil && errors.Is(err, flow.ErrBackpressure) {
			// Refused by the gate: never blind-retry — double the
			// decimation and move on. The next samples absorb the cut.
			v.pacer.OnBackpressure()
			return rec, nil
		}
		if v.pacer != nil && errors.Is(err, flow.ErrCircuitOpen) {
			// Every pooled link's breaker is open: the RSU is not
			// answering at all. Worse than backpressure — cut straight
			// to the decimation floor and let the breaker's half-open
			// probes discover recovery; the pacer then earns the rate
			// back through its usual streaks.
			v.pacer.Floor()
			return rec, nil
		}
		return trace.Record{}, fmt.Errorf("vehicle %d: send: %w", v.cfg.ID, err)
	}
	if v.pacer != nil {
		v.pacer.OnSuccess()
	}
	v.sent.Add(1)
	return rec, nil
}

// PollWarnings drains pending warnings addressed to this vehicle,
// recording end-to-end latency for each. It returns the warnings received
// this round.
func (v *Vehicle) PollWarnings() ([]core.Warning, error) {
	v.pollMu.Lock()
	defer v.pollMu.Unlock()
	//cad3:allow lockdiscipline pollMu exists to serialize drain rounds so pollBuf reuse is safe; the poll is the critical section, and nothing else contends on pollMu
	msgs, err := v.consumer.PollInto(v.pollBuf[:0], 64)
	v.pollBuf = msgs
	var out []core.Warning
	now := v.cfg.Now()
	for _, m := range msgs {
		w, derr := core.DecodeWarning(m.Value)
		if derr != nil {
			continue
		}
		if w.Car != v.cfg.ID {
			continue // broadcast topic: other vehicles' warnings
		}
		v.received.Add(1)
		total := now.UnixMilli() - w.SourceTsMs
		if total < 0 {
			total = 0
		}
		detect := w.DetectedTsMs - w.SourceTsMs
		if detect < 0 {
			detect = 0
		}
		v.latencies.Record(metrics.LatencyBreakdown{
			Queue:         time.Duration(detect) * time.Millisecond,
			Dissemination: time.Duration(total-detect) * time.Millisecond,
		})
		// A traced warning carries the pipeline's per-stage stamps; this
		// receipt is the final one. A complete, monotonic context yields
		// the live µs-precision breakdown of Figure 6.
		if tc, ok := core.WarningTrace(m.Value); ok {
			tc.Stamp(obsv.StageDeliver, now)
			if bd, complete := tc.Breakdown(); complete {
				v.traced.Observe(bd)
			}
		}
		out = append(out, w)
	}
	// DecodeWarning copies into the struct; recycle the payload buffers.
	stream.RecycleMessages(msgs)
	return out, err
}

// Run replays records at SendInterval and polls warnings at PollInterval
// until the context ends or (when not looping) the records run out.
func (v *Vehicle) Run(ctx context.Context) error {
	send := time.NewTicker(v.cfg.SendInterval)
	defer send.Stop()
	poll := time.NewTicker(v.cfg.PollInterval)
	defer poll.Stop()

	i := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-send.C:
			if _, err := v.SendNext(i); err != nil {
				if errors.Is(err, ErrNoRecords) {
					return nil
				}
				return err
			}
			i++
		case <-poll.C:
			_, _ = v.PollWarnings() // per-poll errors are transient
		}
	}
}

// Sent returns the number of records published.
func (v *Vehicle) Sent() int64 { return v.sent.Load() }

// Pacer returns the vehicle's send-side pacer, or nil when unpaced.
func (v *Vehicle) Pacer() *flow.Pacer { return v.pacer }

// Received returns the number of warnings addressed to this vehicle.
func (v *Vehicle) Received() int64 { return v.received.Load() }

// Latencies reports the recorded warning latency breakdowns.
func (v *Vehicle) Latencies() metrics.LatencyReport { return v.latencies.Report() }

// TracedCount returns the number of fully-traced warnings received.
func (v *Vehicle) TracedCount() int { return v.traced.Count() }

// MergeTracedInto folds this vehicle's live-trace streams into a
// fleet-level accumulator.
func (v *Vehicle) MergeTracedInto(dst *metrics.BreakdownAccumulator) { dst.Merge(v.traced) }

// Fleet runs a set of vehicles together.
type Fleet struct {
	vehicles []*Vehicle
}

// NewFleet builds n vehicles replaying slices of records round-robin.
// clientFor returns the broker client for vehicle i (vehicles may attach
// to different RSUs).
func NewFleet(n int, records []trace.Record, clientFor func(i int) stream.Client, opts Config) (*Fleet, error) {
	if n <= 0 {
		return nil, errors.New("vehicle: fleet size must be positive")
	}
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	f := &Fleet{vehicles: make([]*Vehicle, 0, n)}
	for i := 0; i < n; i++ {
		// Deal records round-robin so vehicles replay distinct slices.
		var slice []trace.Record
		for j := i; j < len(records); j += n {
			slice = append(slice, records[j])
		}
		if len(slice) == 0 {
			slice = records
		}
		cfg := opts
		cfg.ID = trace.CarID(i + 1)
		cfg.Client = clientFor(i)
		cfg.Records = slice
		v, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet vehicle %d: %w", i, err)
		}
		f.vehicles = append(f.vehicles, v)
	}
	return f, nil
}

// Run drives every vehicle concurrently until the context ends.
func (f *Fleet) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(f.vehicles))
	for i, v := range f.vehicles {
		wg.Add(1)
		go func(i int, v *Vehicle) {
			defer wg.Done()
			if err := v.Run(ctx); err != nil && !errors.Is(err, context.Canceled) &&
				!errors.Is(err, context.DeadlineExceeded) {
				errs[i] = err
			}
		}(i, v)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Vehicles returns the fleet members.
func (f *Fleet) Vehicles() []*Vehicle { return f.vehicles }

// TotalSent sums records published across the fleet.
func (f *Fleet) TotalSent() int64 {
	var total int64
	for _, v := range f.vehicles {
		total += v.Sent()
	}
	return total
}

// TotalReceived sums warnings received across the fleet.
func (f *Fleet) TotalReceived() int64 {
	var total int64
	for _, v := range f.vehicles {
		total += v.Received()
	}
	return total
}

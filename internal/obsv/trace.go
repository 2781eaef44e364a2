package obsv

import (
	"encoding/binary"
	"time"

	"cad3/internal/metrics"
)

// Span-style pipeline tracing. A TraceContext is a batch ID plus one
// timestamp per pipeline stage; it is born when a vehicle encodes a
// record, rides the wire inside bytes the frame already reserves, and
// accumulates stamps as the payload crosses the pipeline:
//
//	stage     stamped by                        latency component ended
//	Sent      vehicle / experiment send loop    —
//	Arrive    broker on log append              Tx (transmission)
//	Dequeue   micro-batch decode                Queue (queuing)
//	Detect    detector completion               Processing
//	Deliver   warning consumer poll             Dissemination
//
// The four deltas are exactly the paper's Figure 6a/6b decomposition; a
// fully stamped context converts to a metrics.LatencyBreakdown with
// Breakdown, no offline reconstruction needed.
//
// On the wire the context is a 50-byte little-endian blob:
//
//	off  size  field
//	0    1     traceMagic (0xA7)
//	1    1     traceVersion (1)
//	2    8     BatchID
//	10   8     SentMicro
//	18   8     ArriveMicro
//	26   8     DequeueMicro
//	34   8     DetectMicro
//	42   8     DeliverMicro
//
// For records the blob sits at RecordTraceOffset inside the fixed 200 B
// frame's zero padding — tracing costs zero extra wire bytes and zero
// allocations (core asserts the offsets against its body layout). For
// warnings it is an optional tail after the 41-byte fixed body. A payload
// that is not a full frame (JSON, truncated) carries no trace: decoders
// report absence and the pipeline keeps working untraced.

// TraceBlobSize is the encoded size of a TraceContext.
const TraceBlobSize = 50

// Trace blob placement inside the core wire format. core/wire_trace_test.go
// cross-checks these against the codec's actual layout.
const (
	// RecordTraceOffset is where the blob starts inside a binary record
	// frame (the first padding byte after the 76-byte fixed body).
	RecordTraceOffset = 76
	// RecordFrameSize is the fixed binary record frame (core.RecordWireSize).
	RecordFrameSize = 200
	// WarningTraceOffset is where the optional blob starts in a binary
	// warning (right after the 41-byte fixed body).
	WarningTraceOffset = 41
)

const (
	traceMagic   = 0xA7
	traceVersion = 1
)

// Stage indexes one pipeline timestamp inside a TraceContext.
type Stage int

// Pipeline stages in wire order.
const (
	StageSent Stage = iota
	StageArrive
	StageDequeue
	StageDetect
	StageDeliver
	numStages
)

var stageNames = [...]string{"sent", "arrive", "dequeue", "detect", "deliver"}

// String returns the stage's wire name.
func (s Stage) String() string {
	if s < 0 || int(s) >= len(stageNames) {
		return "unknown"
	}
	return stageNames[s]
}

// TraceContext carries a record's identity and per-stage timestamps
// (microseconds since the Unix epoch; zero = not yet stamped). It is a
// plain value — copying it allocates nothing.
type TraceContext struct {
	BatchID      uint64
	SentMicro    int64
	ArriveMicro  int64
	DequeueMicro int64
	DetectMicro  int64
	DeliverMicro int64
}

// Valid reports whether the context was ever stamped at all.
func (tc TraceContext) Valid() bool {
	return tc.SentMicro != 0 || tc.ArriveMicro != 0 || tc.DequeueMicro != 0 ||
		tc.DetectMicro != 0 || tc.DeliverMicro != 0
}

// Stamp sets the stage timestamp from t.
func (tc *TraceContext) Stamp(s Stage, t time.Time) {
	tc.set(s, t.UnixMicro())
}

func (tc *TraceContext) set(s Stage, us int64) {
	switch s {
	case StageSent:
		tc.SentMicro = us
	case StageArrive:
		tc.ArriveMicro = us
	case StageDequeue:
		tc.DequeueMicro = us
	case StageDetect:
		tc.DetectMicro = us
	case StageDeliver:
		tc.DeliverMicro = us
	}
}

// Breakdown converts a fully stamped context into the paper's latency
// decomposition. ok is false while any stage is unstamped or the stamps
// are non-monotonic (clock skew between unsynchronised hosts).
func (tc TraceContext) Breakdown() (metrics.LatencyBreakdown, bool) {
	if tc.SentMicro == 0 || tc.ArriveMicro == 0 || tc.DequeueMicro == 0 ||
		tc.DetectMicro == 0 || tc.DeliverMicro == 0 {
		return metrics.LatencyBreakdown{}, false
	}
	if tc.ArriveMicro < tc.SentMicro || tc.DequeueMicro < tc.ArriveMicro ||
		tc.DetectMicro < tc.DequeueMicro || tc.DeliverMicro < tc.DetectMicro {
		return metrics.LatencyBreakdown{}, false
	}
	return metrics.LatencyBreakdown{
		Tx:            time.Duration(tc.ArriveMicro-tc.SentMicro) * time.Microsecond,
		Queue:         time.Duration(tc.DequeueMicro-tc.ArriveMicro) * time.Microsecond,
		Processing:    time.Duration(tc.DetectMicro-tc.DequeueMicro) * time.Microsecond,
		Dissemination: time.Duration(tc.DeliverMicro-tc.DetectMicro) * time.Microsecond,
	}, true
}

var traceLE = binary.LittleEndian

// PutTrace encodes tc into b, which must hold at least TraceBlobSize
// bytes. It writes in place and allocates nothing.
//
//cad3:noalloc
func PutTrace(b []byte, tc TraceContext) {
	_ = b[TraceBlobSize-1]
	b[0] = traceMagic
	b[1] = traceVersion
	traceLE.PutUint64(b[2:], tc.BatchID)
	traceLE.PutUint64(b[10:], uint64(tc.SentMicro))
	traceLE.PutUint64(b[18:], uint64(tc.ArriveMicro))
	traceLE.PutUint64(b[26:], uint64(tc.DequeueMicro))
	traceLE.PutUint64(b[34:], uint64(tc.DetectMicro))
	traceLE.PutUint64(b[42:], uint64(tc.DeliverMicro))
}

// GetTrace decodes a trace blob from b. ok is false when b is too short or
// does not start with a current-version trace header — untraced padding,
// JSON payloads, and future versions all land here and degrade to the
// untraced pipeline.
//
//cad3:noalloc
func GetTrace(b []byte) (TraceContext, bool) {
	if len(b) < TraceBlobSize || b[0] != traceMagic || b[1] != traceVersion {
		return TraceContext{}, false
	}
	return TraceContext{
		BatchID:      traceLE.Uint64(b[2:]),
		SentMicro:    int64(traceLE.Uint64(b[10:])),
		ArriveMicro:  int64(traceLE.Uint64(b[18:])),
		DequeueMicro: int64(traceLE.Uint64(b[26:])),
		DetectMicro:  int64(traceLE.Uint64(b[34:])),
		DeliverMicro: int64(traceLE.Uint64(b[42:])),
	}, true
}

// payloadTraceRegion locates the trace blob inside a wire payload: a
// 200 B binary record frame carries it in its padding, a traced binary
// warning as its tail. Anything else (JSON, untraced warnings, other
// payload types) has none.
//
//cad3:noalloc
func payloadTraceRegion(payload []byte) []byte {
	switch {
	case len(payload) == RecordFrameSize:
		return payload[RecordTraceOffset:]
	case len(payload) == WarningTraceOffset+TraceBlobSize:
		return payload[WarningTraceOffset:]
	default:
		return nil
	}
}

// PayloadTrace extracts the trace context from any wire payload, reporting
// ok=false for untraced or JSON payloads.
//
//cad3:noalloc
func PayloadTrace(payload []byte) (TraceContext, bool) {
	region := payloadTraceRegion(payload)
	if region == nil {
		return TraceContext{}, false
	}
	return GetTrace(region)
}

// StampPayload stamps the stage timestamp directly into a traced wire
// payload, in place and without allocating. Untraced payloads are left
// untouched (returns false). The broker uses this to stamp StageArrive on
// its own copy at append time, exactly like Kafka's log-append-time.
//
// A stage already stamped is left as-is (first write wins): a warning
// forwarded to OUT-DATA carries the original record's context, and the
// second broker hop must not overwrite the IN-DATA arrival — that hop's
// delay belongs to Dissemination, which StageDeliver closes.
//
//cad3:noalloc
func StampPayload(payload []byte, s Stage, t time.Time) bool {
	region := payloadTraceRegion(payload)
	if region == nil || region[0] != traceMagic || region[1] != traceVersion {
		return false
	}
	var off int
	switch s {
	case StageSent:
		off = 10
	case StageArrive:
		off = 18
	case StageDequeue:
		off = 26
	case StageDetect:
		off = 34
	case StageDeliver:
		off = 42
	default:
		return false
	}
	if traceLE.Uint64(region[off:]) != 0 {
		return false
	}
	traceLE.PutUint64(region[off:], uint64(t.UnixMicro()))
	return true
}

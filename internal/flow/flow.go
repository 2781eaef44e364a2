// Package flow is the end-to-end flow-control substrate for the CAD3
// record path. The paper's evaluation holds offered load near the DSRC
// budget; this package is what lets the reproduction survive the loads the
// paper does not test: every hand-off from vehicle to RSU detector is
// bounded, instrumented, and able to push back.
//
// Three pieces:
//
//   - Gate (gate.go): a credit/occupancy-based admission gate in front of a
//     bounded queue. Producers consume credits on admit; consumers return
//     them as they drain (fetch credits). The gate sheds telemetry under
//     pressure but never warnings or neighbour summaries, mirroring the
//     paper's priority between raw status updates and safety messages. A
//     shed answers with a preallocated backpressure error carrying a
//     retry-after hint, so the refusal path allocates nothing.
//   - BatchController (batch.go): an AIMD controller that adapts the
//     micro-batch drain bound toward a per-batch latency SLO instead of the
//     fixed 8192-message cap.
//   - Pacer (pacer.go): send-side rate decimation for vehicles — on
//     backpressure a vehicle halves its effective telemetry rate rather
//     than blind-retrying, the congestion response DSRC mandates for
//     status-message channels.
//
// Everything is stdlib-only, safe for concurrent use, and allocation-free
// on both the admit and the refuse path.
package flow

import (
	"errors"
	"time"
)

// Class is the priority class of a message crossing a gate. The pipeline
// maps topics to classes (IN-DATA = Telemetry, OUT-DATA = Warning,
// CO-DATA = Summary); anything else is Other.
type Class uint8

// Priority classes, lowest first. A gate sheds telemetry (and other
// traffic) but never warnings or summaries: a lost 10 Hz status update is
// recovered by the next one, while a lost warning is a missed safety
// intervention and a lost summary silently degrades a neighbour RSU to its
// standalone model.
const (
	ClassTelemetry Class = iota
	ClassWarning
	ClassSummary
	ClassOther
	numClasses
)

// String returns the class name for logs and metric labels.
func (c Class) String() string {
	switch c {
	case ClassTelemetry:
		return "telemetry"
	case ClassWarning:
		return "warning"
	case ClassSummary:
		return "summary"
	default:
		return "other"
	}
}

// ErrBackpressure is the sentinel every gate refusal matches via
// errors.Is. Callers that can pace (vehicles) decimate their send rate;
// callers that cannot treat it as a dropped message.
var ErrBackpressure = errors.New("flow: backpressure")

// BackpressureError is the concrete refusal returned by a Gate: it wraps
// ErrBackpressure and carries a retry-after hint derived from the gate's
// occupancy. One instance is preallocated per gate, so returning it
// allocates nothing; its hint is read live from the gate's atomics.
type BackpressureError struct {
	gate *Gate
}

// Error implements error. The message is the sentinel's (string-prefix
// matched by the TCP wire protocol's remote-error mapping).
func (e *BackpressureError) Error() string { return ErrBackpressure.Error() }

// Is makes errors.Is(err, ErrBackpressure) true.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// RetryAfter returns the gate's current backoff hint: DefaultRetryHint
// scaled by how far over capacity the gate is. A barely-full gate
// hints one base interval; a badly overrun one hints proportionally more.
func (e *BackpressureError) RetryAfter() time.Duration {
	if e.gate == nil {
		return 0
	}
	return e.gate.retryHint()
}

// RetryAfter extracts the retry-after hint from a (possibly wrapped)
// backpressure error. ok is false when the error carries no hint.
func RetryAfter(err error) (time.Duration, bool) {
	for err != nil {
		if bp, isBP := err.(interface{ RetryAfter() time.Duration }); isBP {
			return bp.RetryAfter(), true
		}
		err = errors.Unwrap(err)
	}
	return 0, false
}

package core

import (
	"encoding/json"
	"testing"
	"time"

	"cad3/internal/obsv"
)

func testTraceContext() obsv.TraceContext {
	return obsv.TraceContext{
		BatchID:      9,
		SentMicro:    1_000_000,
		ArriveMicro:  1_004_000,
		DequeueMicro: 1_030_000,
		DetectMicro:  1_041_000,
	}
}

// TestTraceLayoutConstants pins obsv's knowledge of the wire layout to the
// codec's actual constants — if either side moves, this fails before any
// cross-package corruption can.
func TestTraceLayoutConstants(t *testing.T) {
	if obsv.RecordTraceOffset != recordBodySize {
		t.Fatalf("obsv.RecordTraceOffset = %d, codec body = %d", obsv.RecordTraceOffset, recordBodySize)
	}
	if obsv.RecordFrameSize != RecordWireSize {
		t.Fatalf("obsv.RecordFrameSize = %d, codec frame = %d", obsv.RecordFrameSize, RecordWireSize)
	}
	if obsv.WarningTraceOffset != warningWireSize {
		t.Fatalf("obsv.WarningTraceOffset = %d, codec warning = %d", obsv.WarningTraceOffset, warningWireSize)
	}
	if obsv.RecordTraceOffset+obsv.TraceBlobSize > RecordWireSize {
		t.Fatal("trace blob does not fit the record padding")
	}
}

func TestRecordTraceRoundTrip(t *testing.T) {
	rec := wireTestRecord()
	tc := testTraceContext()
	payload := AppendRecordTraced(nil, rec, tc)
	if len(payload) != RecordWireSize {
		t.Fatalf("traced record is %d bytes, want %d", len(payload), RecordWireSize)
	}

	// The record decodes exactly as an untraced one.
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := rec
	want.Anomalous = false // ground truth never rides the wire
	if got != want {
		t.Fatalf("traced frame decoded record mismatch:\n got %+v\nwant %+v", got, want)
	}

	gotTC, ok := RecordTrace(payload)
	if !ok || gotTC != tc {
		t.Fatalf("RecordTrace: ok=%v got=%+v want=%+v", ok, gotTC, tc)
	}

	// Untraced frames report no context.
	if _, ok := RecordTrace(AppendRecord(nil, rec)); ok {
		t.Fatal("untraced frame reported a trace")
	}
}

func TestWarningTraceRoundTrip(t *testing.T) {
	w := Warning{Car: 42, Road: 900001, PNormal: 0.31,
		SourceTsMs: 1721930000123, DetectedTsMs: 1721930000161}
	tc := testTraceContext()
	tc.DeliverMicro = 1_055_000
	payload := AppendWarningTraced(nil, w, tc)

	got, err := DecodeWarning(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("traced warning decoded mismatch: %+v", got)
	}
	gotTC, ok := WarningTrace(payload)
	if !ok || gotTC != tc {
		t.Fatalf("WarningTrace: ok=%v got=%+v", ok, gotTC)
	}
	if _, ok := WarningTrace(AppendWarning(nil, w)); ok {
		t.Fatal("untraced warning reported a trace")
	}
}

// TestTraceJSONFallback: a payload without the binary header, such as the
// JSON form of a record or a warning, is a decode error and reports no
// trace context.
func TestTraceJSONFallback(t *testing.T) {
	rec, err := json.Marshal(wireTestRecord())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(rec); err == nil {
		t.Fatal("a JSON record decoded")
	}
	if _, ok := RecordTrace(rec); ok {
		t.Fatal("a JSON record reported a trace context")
	}

	w, err := json.Marshal(Warning{Car: 1, Road: 2, PNormal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWarning(w); err == nil {
		t.Fatal("a JSON warning decoded")
	}
	if _, ok := WarningTrace(w); ok {
		t.Fatal("a JSON warning reported a trace context")
	}
}

// TestBrokerStampPropagatesThroughWire simulates the broker stamping its
// copy at append time: the stamp lands in the padding and survives decode.
func TestBrokerStampPropagatesThroughWire(t *testing.T) {
	tc := obsv.TraceContext{BatchID: 1, SentMicro: 1_000_000}
	payload := AppendRecordTraced(nil, wireTestRecord(), tc)
	if !obsv.StampPayload(payload, obsv.StageArrive, time.UnixMicro(1_004_200)) {
		t.Fatal("stamp refused")
	}
	got, ok := RecordTrace(payload)
	if !ok || got.ArriveMicro != 1_004_200 || got.SentMicro != 1_000_000 {
		t.Fatalf("stamped trace: ok=%v %+v", ok, got)
	}
}

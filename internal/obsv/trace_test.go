package obsv

import (
	"testing"
	"time"
)

func sampleContext() TraceContext {
	return TraceContext{
		BatchID:      42,
		SentMicro:    1_000_000,
		ArriveMicro:  1_003_500,
		DequeueMicro: 1_030_000,
		DetectMicro:  1_041_700,
		DeliverMicro: 1_055_000,
	}
}

func TestTraceBlobRoundTrip(t *testing.T) {
	tc := sampleContext()
	b := make([]byte, TraceBlobSize)
	PutTrace(b, tc)
	got, ok := GetTrace(b)
	if !ok {
		t.Fatal("GetTrace failed on a freshly encoded blob")
	}
	if got != tc {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc)
	}
}

func TestGetTraceRejectsGarbage(t *testing.T) {
	if _, ok := GetTrace(nil); ok {
		t.Fatal("nil accepted")
	}
	if _, ok := GetTrace(make([]byte, TraceBlobSize)); ok {
		t.Fatal("zero padding accepted as a trace")
	}
	b := make([]byte, TraceBlobSize)
	PutTrace(b, sampleContext())
	b[1] = 99 // future version
	if _, ok := GetTrace(b); ok {
		t.Fatal("unknown version accepted")
	}
}

func TestBreakdown(t *testing.T) {
	tc := sampleContext()
	lb, ok := tc.Breakdown()
	if !ok {
		t.Fatal("complete context rejected")
	}
	if lb.Tx != 3500*time.Microsecond ||
		lb.Queue != 26500*time.Microsecond ||
		lb.Processing != 11700*time.Microsecond ||
		lb.Dissemination != 13300*time.Microsecond {
		t.Fatalf("breakdown %+v", lb)
	}
	if lb.Total() != 55000*time.Microsecond {
		t.Fatalf("total %v", lb.Total())
	}

	// Unstamped stage -> not a breakdown yet.
	partial := tc
	partial.DeliverMicro = 0
	if _, ok := partial.Breakdown(); ok {
		t.Fatal("partial context accepted")
	}
	// Non-monotonic stamps (clock skew) -> rejected.
	skewed := tc
	skewed.DequeueMicro = tc.SentMicro - 1
	if _, ok := skewed.Breakdown(); ok {
		t.Fatal("non-monotonic context accepted")
	}
}

func TestPayloadTraceAndStamp(t *testing.T) {
	// Record-shaped payload: 200 B frame with the blob in the padding.
	rec := make([]byte, RecordFrameSize)
	tc := TraceContext{BatchID: 7, SentMicro: 500}
	PutTrace(rec[RecordTraceOffset:], tc)
	got, ok := PayloadTrace(rec)
	if !ok || got.BatchID != 7 || got.SentMicro != 500 {
		t.Fatalf("record payload trace: ok=%v got=%+v", ok, got)
	}

	at := time.UnixMicro(12345)
	if !StampPayload(rec, StageArrive, at) {
		t.Fatal("stamp refused on traced record")
	}
	got, _ = PayloadTrace(rec)
	if got.ArriveMicro != 12345 {
		t.Fatalf("arrive = %d, want 12345", got.ArriveMicro)
	}

	// Warning-shaped payload: fixed body + trace tail.
	warn := make([]byte, WarningTraceOffset+TraceBlobSize)
	PutTrace(warn[WarningTraceOffset:], got)
	if !StampPayload(warn, StageDeliver, time.UnixMicro(99999)) {
		t.Fatal("stamp refused on traced warning")
	}
	wtc, ok := PayloadTrace(warn)
	if !ok || wtc.DeliverMicro != 99999 {
		t.Fatalf("warning trace: ok=%v got=%+v", ok, wtc)
	}
}

// TestPayloadTraceGracefulDegradation proves that payloads which are not
// full frames (JSON, truncated) and untraced binary frames simply carry no
// trace, instead of failing.
func TestPayloadTraceGracefulDegradation(t *testing.T) {
	cases := map[string][]byte{
		"json":             []byte(`{"Car":42,"Road":900001,"TimestampMs":123}`),
		"untraced record":  make([]byte, RecordFrameSize), // zero padding
		"plain warning":    make([]byte, WarningTraceOffset),
		"empty":            nil,
		"truncated record": make([]byte, RecordFrameSize-1),
	}
	for name, payload := range cases {
		if _, ok := PayloadTrace(payload); ok {
			t.Errorf("%s: trace unexpectedly present", name)
		}
		if StampPayload(payload, StageArrive, time.Now()) {
			t.Errorf("%s: stamp unexpectedly succeeded", name)
		}
	}
}

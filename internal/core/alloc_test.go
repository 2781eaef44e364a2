package core

import (
	"errors"
	"testing"
	"time"

	"cad3/internal/flow"
	"cad3/internal/obsv"
	"cad3/internal/stream"
)

// TestDetectHotPathZeroAllocs enforces the allocation-free contract on the
// per-record detection path: AD3, CAD3 (with and without a forwarded
// summary) and the centralized baseline must not touch the heap per
// Detect call.
func TestDetectHotPathZeroAllocs(t *testing.T) {
	fx := corridorFixture(t)
	central, ad3, cad3, summaries := trainAll(t, fx)

	var rec = fx.test[0]
	for _, r := range fx.test {
		if _, ok := summaries[r.Car]; ok {
			rec = r
			break
		}
	}
	prior, hasPrior := summaries[rec.Car]
	if !hasPrior {
		t.Fatal("fixture has no test record with a forwarded summary")
	}

	cases := []struct {
		name string
		fn   func() error
	}{
		{"AD3", func() error { _, err := ad3.Detect(rec, nil); return err }},
		{"Centralized", func() error { _, err := central.Detect(rec, nil); return err }},
		{"CAD3-no-prior", func() error { _, err := cad3.Detect(rec, nil); return err }},
		{"CAD3-with-prior", func() error { _, err := cad3.Detect(rec, &prior); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := tc.fn(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s Detect: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestTracedWireZeroAllocs extends the zero-alloc contract to the tracing
// layer: encoding a traced record into a reused frame, stamping a stage in
// place, reading the context back, and observing a registry histogram must
// all stay off the heap — tracing cannot be allowed to undo the PR 1
// fast-path guarantee.
func TestTracedWireZeroAllocs(t *testing.T) {
	rec := wireTestRecord()
	tc := obsv.TraceContext{BatchID: 1, SentMicro: 1_000_000}
	buf := make([]byte, 0, RecordWireSize)
	hist := obsv.NewHistogram(nil)
	at := time.UnixMicro(1_004_200)

	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendRecordTraced(buf[:0], rec, tc)
		if !obsv.StampPayload(buf, obsv.StageArrive, at) {
			t.Fatal("stamp refused")
		}
		got, ok := RecordTrace(buf)
		if !ok {
			t.Fatal("trace lost")
		}
		hist.Observe(got.ArriveMicro - got.SentMicro)
	})
	if allocs != 0 {
		t.Errorf("traced encode+stamp+decode+observe: %v allocs/op, want 0", allocs)
	}
}

// TestSummaryCodecZeroAllocs holds the CO-DATA codec to a fixed layout:
// appending a summary into a reused buffer and decoding it touch no heap.
func TestSummaryCodecZeroAllocs(t *testing.T) {
	s := PredictionSummary{Car: 42, MeanPNormal: 0.87, Count: 84, FromRoad: 9, UpdatedMs: 123}
	buf := make([]byte, 0, summaryFixedSize)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendSummary(buf[:0], s); err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeSummary(buf); err != nil || got != s {
			t.Fatalf("decode = %+v, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Errorf("summary encode+decode: %v allocs/op, want 0", allocs)
	}
}

// TestBackpressuredSendZeroAllocs extends the zero-alloc contract to the
// refusal path: a producer whose send hits a full admission gate must get
// its preallocated backpressure error without touching the heap. Overload
// is exactly when per-send allocations would hurt most.
func TestBackpressuredSendZeroAllocs(t *testing.T) {
	b := stream.NewBroker(stream.BrokerConfig{
		FlowCapacity: 1,
	})
	if err := b.CreateTopic(stream.TopicInData, 1); err != nil {
		t.Fatal(err)
	}
	p, err := stream.NewProducer(stream.NewInProcClient(b), stream.TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	rec := wireTestRecord()
	key := []byte("car-1")
	buf := AppendRecord(nil, rec)
	// Take the topic's only credit; every send after this is refused.
	if _, _, err := p.Send(key, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendRecord(buf[:0], rec)
		_, _, serr := p.Send(key, buf)
		if !errors.Is(serr, flow.ErrBackpressure) {
			t.Fatalf("want backpressure, got %v", serr)
		}
		if _, ok := flow.RetryAfter(serr); !ok {
			t.Fatal("refusal lost its retry-after hint")
		}
	})
	if allocs != 0 {
		t.Errorf("backpressured send: %v allocs/op, want 0", allocs)
	}
}

package core

import (
	"testing"
	"time"

	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/trace"
)

func benchRecord() trace.Record {
	return trace.Record{
		Car: 42, Road: 900001, Accel: 1.25, Speed: 61.5,
		Lat: 22.5431, Lon: 114.0579, Heading: 87.3,
		Hour: 18, Day: 12, RoadType: geo.Motorway,
		RoadMeanSpeed: 54.2, TimestampMs: 1721930000123,
	}
}

func benchWarning() Warning {
	return Warning{Car: 42, Road: 900001, PNormal: 0.31,
		SourceTsMs: 1721930000123, DetectedTsMs: 1721930000161}
}

func benchSummary() PredictionSummary {
	return PredictionSummary{Car: 42, MeanPNormal: 0.87, Count: 84,
		FromRoad: 900001, UpdatedMs: 1721930000123}
}

// BenchmarkWireCodec measures one encode+decode round trip per op for each
// wire type with a reused destination buffer (the steady-state telemetry
// path).
func BenchmarkWireCodec(b *testing.B) {
	b.Run("record/binary", func(b *testing.B) {
		rec := benchRecord()
		dst := make([]byte, 0, RecordWireSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendRecord(dst[:0], rec)
			if _, err := DecodeRecord(dst); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})
	b.Run("warning/binary", func(b *testing.B) {
		w := benchWarning()
		dst := make([]byte, 0, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendWarning(dst[:0], w)
			if _, err := DecodeWarning(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("summary/binary", func(b *testing.B) {
		s := benchSummary()
		dst := make([]byte, 0, 128)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = AppendSummary(dst[:0], s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeSummary(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracedWire isolates the tracing overhead on the telemetry fast
// path: encoding a traced record vs a plain one, the broker's in-place
// arrival stamp, and the dequeue-side context extraction — the three
// per-record costs the observability layer adds (DESIGN.md §9).
func BenchmarkTracedWire(b *testing.B) {
	rec := benchRecord()
	var tc obsv.TraceContext
	tc.Stamp(obsv.StageSent, time.UnixMilli(rec.TimestampMs))
	b.Run("record/traced", func(b *testing.B) {
		dst := make([]byte, 0, RecordWireSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendRecordTraced(dst[:0], rec, tc)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})
	b.Run("record/plain", func(b *testing.B) {
		dst := make([]byte, 0, RecordWireSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendRecord(dst[:0], rec)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})
	b.Run("stamp-arrive", func(b *testing.B) {
		payload := AppendRecordTraced(nil, rec, tc)
		at := time.UnixMilli(rec.TimestampMs + 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// First-write-wins: after the first iteration the stamp is a
			// read-and-skip, which is the broker's steady-state re-produce
			// cost; iteration 1 pays the actual write.
			obsv.StampPayload(payload, obsv.StageArrive, at)
		}
	})
	b.Run("extract", func(b *testing.B) {
		payload := AppendRecordTraced(nil, rec, tc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := RecordTrace(payload); !ok {
				b.Fatal("trace not found")
			}
		}
	})
}

// BenchmarkDetectHotPath measures the per-record detection cost of each
// model on the trained corridor fixture — the inner loop of an RSU's
// micro-batch worker.
func BenchmarkDetectHotPath(b *testing.B) {
	fx := corridorFixture(b)
	central, ad3, cad3, summaries := trainAll(b, fx)

	rec := fx.test[0]
	for _, r := range fx.test {
		if _, ok := summaries[r.Car]; ok {
			rec = r
			break
		}
	}
	prior, hasPrior := summaries[rec.Car]
	if !hasPrior {
		b.Fatal("fixture has no test record with a forwarded summary")
	}

	run := func(b *testing.B, det Detector, p *PredictionSummary) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(rec, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	}
	b.Run("AD3", func(b *testing.B) { run(b, ad3, nil) })
	b.Run("CAD3", func(b *testing.B) { run(b, cad3, &prior) })
	b.Run("Centralized", func(b *testing.B) { run(b, central, nil) })
}

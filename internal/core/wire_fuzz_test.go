package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cad3/internal/geo"
	"cad3/internal/trace"
)

// Decode fuzzers: arbitrary bytes must never panic a decoder, and any
// accepted binary parse must come from a buffer long enough to hold the
// layout (a summary: exactly its 38 bytes, re-encoding to the same bytes) (mirrors internal/stream's wire-protocol fuzzers). A
// record or warning without its binary header — JSON included — must not
// decode at all. Run continuously with `go test -fuzz FuzzDecodeRecord
// ./internal/core`.

func FuzzDecodeRecord(f *testing.F) {
	valid, _ := EncodeRecord(trace.Record{Car: 1, Road: 2, Speed: 30, Hour: 9, Day: 4, RoadType: geo.Motorway})
	j, _ := json.Marshal(trace.Record{Car: 1, Hour: 9, Day: 4, RoadType: geo.Motorway})
	f.Add(valid)
	f.Add(j)
	f.Add([]byte{})
	f.Add([]byte{hdrRecord})
	f.Add(valid[:recordBodySize/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if !isBinary(data, hdrRecord) && err == nil {
			t.Fatalf("decoded a payload without the record header: %+v", rec)
		}
		if err != nil {
			return
		}
		if len(data) < recordBodySize {
			t.Fatalf("accepted %d-byte binary record, need %d: %+v", len(data), recordBodySize, rec)
		}
	})
}

func FuzzDecodeWarning(f *testing.F) {
	valid := AppendWarning(nil, Warning{Car: 1, Road: 2, PNormal: 0.5, SourceTsMs: 3, DetectedTsMs: 4})
	f.Add(valid)
	f.Add([]byte{hdrWarning, 0x01})
	f.Add([]byte(`{"carId":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWarning(data)
		if !isBinary(data, hdrWarning) && err == nil {
			t.Fatalf("decoded a payload without the warning header: %+v", w)
		}
		if err != nil {
			return
		}
		if len(data) < warningWireSize {
			t.Fatalf("accepted %d-byte binary warning: %+v", len(data), w)
		}
	})
}

func FuzzDecodeSummary(f *testing.F) {
	valid, _ := EncodeSummary(PredictionSummary{Car: 1, MeanPNormal: 0.5, Count: 3})
	tailed := append(append([]byte(nil), valid...), make([]byte, 16)...)
	tailed[37] = 2 // the retired two-entry tail form
	f.Add(valid)
	f.Add([]byte{hdrSummary, 0xff})
	f.Add(tailed)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSummary(data)
		if !isBinary(data, hdrSummary) && err == nil {
			t.Fatalf("decoded a payload without the summary header: %+v", s)
		}
		if err != nil {
			return
		}
		if len(data) != summaryFixedSize || data[37] != 0 {
			t.Fatalf("accepted a %d-byte summary with reserved byte %#x", len(data), data[len(data)-1])
		}
		again, err := AppendSummary(nil, s)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", again, data)
		}
	})
}

// Round-trip fuzzers: encode→decode must be the identity for any valid
// payload.

func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), 30.0, 1.5, 22.5, 114.0, 90.0, byte(9), byte(4), byte(3), 35.0, int64(99))
	f.Add(int64(-7), int64(1<<40), -3.0, 0.0, 0.0, 0.0, 359.9, byte(23), byte(31), byte(10), 0.0, int64(-1))
	f.Fuzz(func(t *testing.T, car, road int64, speed, accel, lat, lon, hdg float64,
		hour, day, rt byte, vr float64, ts int64) {
		rec := trace.Record{
			Car: trace.CarID(car), Road: geo.SegmentID(road),
			Speed: speed, Accel: accel, Lat: lat, Lon: lon, Heading: hdg,
			Hour: int(hour % 24), Day: int(day%31) + 1,
			RoadType: geo.RoadType(rt % 11), RoadMeanSpeed: vr, TimestampMs: ts,
		}
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if differsNaNAware(got, rec) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
		}
	})
}

// differsNaNAware compares records treating NaN==NaN: binary carries any
// bit pattern through Float64bits exactly, but NaN != NaN.
func differsNaNAware(a, b trace.Record) bool {
	return !reflect.DeepEqual(normNaN(a), normNaN(b))
}

func normNaN(r trace.Record) trace.Record {
	fix := func(f *float64) {
		if *f != *f {
			*f = -12345.6789 // canonical stand-in, only compared against itself
		}
	}
	fix(&r.Speed)
	fix(&r.Accel)
	fix(&r.Lat)
	fix(&r.Lon)
	fix(&r.Heading)
	fix(&r.RoadMeanSpeed)
	return r
}

func FuzzSummaryRoundTrip(f *testing.F) {
	f.Add(int64(1), 0.5, uint16(3), int64(2), int64(99))
	f.Add(int64(9), 1.0, uint16(65535), int64(-2), int64(0))
	f.Fuzz(func(t *testing.T, car int64, mean float64, count uint16, road, ts int64) {
		if mean != mean {
			t.Skip("NaN is not equal to itself")
		}
		s := PredictionSummary{
			Car: trace.CarID(car), MeanPNormal: mean, Count: int(count),
			FromRoad: road, UpdatedMs: ts,
		}
		payload, err := EncodeSummary(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != summaryFixedSize {
			t.Fatalf("encoded %d bytes, want %d", len(payload), summaryFixedSize)
		}
		got, err := DecodeSummary(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != s {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, s)
		}
	})
}

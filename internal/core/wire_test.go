package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"cad3/internal/geo"
	"cad3/internal/trace"
)

func wireTestRecord() trace.Record {
	return trace.Record{
		Car: 426, Road: 9001, Accel: -2.75, Speed: 37.5,
		Lat: 22.5431, Lon: 114.0579, Heading: 182.4,
		Hour: 9, Day: 4, RoadType: geo.MotorwayLink,
		RoadMeanSpeed: 35.2, TimestampMs: 1467621000123,
	}
}

func TestRecordBinaryRoundTrip(t *testing.T) {
	rec := wireTestRecord()
	payload, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != RecordWireSize {
		t.Fatalf("binary record is %d bytes, want %d (the paper's packet size)", len(payload), RecordWireSize)
	}
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

func TestRecordBinaryDropsAnomalousLikeJSON(t *testing.T) {
	rec := wireTestRecord()
	rec.Anomalous = true
	payload, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Anomalous {
		t.Error("Anomalous is generator ground truth and must not cross the wire")
	}
	rec.Anomalous = false
	if got != rec {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, rec)
	}
}

// TestRecordJSONFallback: records are binary only. A payload without the
// binary header, such as the record's JSON form, falls through to a decode
// error rather than to a JSON decoder.
func TestRecordJSONFallback(t *testing.T) {
	payload, err := json.Marshal(wireTestRecord())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(payload); err == nil {
		t.Fatal("a JSON record decoded")
	}
}

func TestWarningBinaryRoundTrip(t *testing.T) {
	w := Warning{Car: 7, Road: -42, PNormal: 0.125, SourceTsMs: 1467621000123, DetectedTsMs: 1467621000170}
	got, err := DecodeWarning(AppendWarning(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, w)
	}
}

func TestSummaryBinaryRoundTrip(t *testing.T) {
	cases := []PredictionSummary{
		{Car: 3, MeanPNormal: 0.875, Count: 12, FromRoad: 9001, UpdatedMs: 99},
		{Car: -1, MeanPNormal: 0.125, Count: math.MaxUint32, FromRoad: -2, UpdatedMs: -3},
	}
	for _, s := range cases {
		payload, err := EncodeSummary(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != summaryFixedSize || payload[37] != 0 {
			t.Fatalf("payload is %d bytes ending %#x, want %d ending 0", len(payload), payload[len(payload)-1], summaryFixedSize)
		}
		got, err := DecodeSummary(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
		}
	}
}

// TestSummaryOutsideLayoutIsRefused holds the summary codec to its one
// encoding: what the binary layout cannot carry is an encode error that
// leaves dst as it was, and a payload that is not exactly the 38-byte
// layout with its reserved byte 0 — the JSON form older peers sent, or the
// retired form with a prediction tail — is a decode error.
func TestSummaryOutsideLayoutIsRefused(t *testing.T) {
	for name, s := range map[string]PredictionSummary{
		"negative count": {Car: 5, Count: -1},
		"count over u32": {Car: 5, Count: math.MaxUint32 + 1},
	} {
		dst := []byte{0xaa}
		got, err := AppendSummary(dst, s)
		if err == nil {
			t.Errorf("%s: encoded, want an error", name)
		}
		if len(got) != 1 || got[0] != 0xaa {
			t.Errorf("%s: dst changed to %d bytes", name, len(got))
		}
	}
	j, err := json.Marshal(PredictionSummary{Car: 5, MeanPNormal: 0.5, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := DecodeSummary(j); err == nil {
		t.Fatalf("a JSON summary decoded: %+v", s)
	}
	valid, err := EncodeSummary(PredictionSummary{Car: 5, MeanPNormal: 0.5, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	tailed := append(append([]byte(nil), valid...), make([]byte, 8)...)
	tailed[37] = 1
	reserved := append([]byte(nil), valid...)
	reserved[37] = 1
	for name, b := range map[string][]byte{
		"one-entry tail":    tailed,
		"reserved byte set": reserved,
		"trailing byte":     append(append([]byte(nil), valid...), 0),
	} {
		if s, err := DecodeSummary(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, s)
		}
	}
}

func TestDecodeRejectsTruncatedBinary(t *testing.T) {
	rec, _ := EncodeRecord(wireTestRecord())
	if _, err := DecodeRecord(rec[:recordBodySize-1]); err == nil {
		t.Error("truncated binary record should not decode")
	}
	w := AppendWarning(nil, Warning{Car: 1})
	if _, err := DecodeWarning(w[:warningWireSize-1]); err == nil {
		t.Error("truncated binary warning should not decode")
	}
	s, _ := EncodeSummary(PredictionSummary{Car: 1})
	if _, err := DecodeSummary(s[:summaryFixedSize-1]); err == nil {
		t.Error("truncated binary summary should not decode")
	}
}

func TestDecodeUnknownVersionFallsBack(t *testing.T) {
	// A version-2 header is not a version-1 record, so decode must fail
	// cleanly, never panic.
	payload := []byte{WireVersion + 1<<4 | wireTypeRecord, 0xde, 0xad}
	payload[0] = (WireVersion+1)<<4 | wireTypeRecord
	if _, err := DecodeRecord(payload); err == nil {
		t.Error("unknown-version payload should not decode as a record")
	}
	// Cross-type headers must not be accepted either.
	rec, _ := EncodeRecord(wireTestRecord())
	if _, err := DecodeWarning(rec); err == nil {
		t.Error("a binary record must not decode as a warning")
	}
}

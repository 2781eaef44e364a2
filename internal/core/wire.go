package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/trace"
)

// Binary wire codec for the three CAD3 payloads (IN-DATA records, OUT-DATA
// warnings, CO-DATA summaries). Every payload starts with a single header
// byte carrying the format version in the high nibble and the payload type
// in the low nibble; the body is a fixed little-endian layout. Every
// payload is binary only: a payload without its header is a decode error,
// and AppendSummary refuses a summary the layout cannot hold (a count
// outside uint32).
//
// See DESIGN.md §"Wire formats" for the byte-level layout and the
// buffer-ownership rules around the stream package's payload pool.

// Wire format constants.
const (
	// WireVersion is the current binary format version (header high
	// nibble). Decoders reject any other version.
	WireVersion = 1

	wireTypeRecord  = 0x1
	wireTypeWarning = 0x2
	wireTypeSummary = 0x3

	hdrRecord  = WireVersion<<4 | wireTypeRecord  // 0x11
	hdrWarning = WireVersion<<4 | wireTypeWarning // 0x12
	hdrSummary = WireVersion<<4 | wireTypeSummary // 0x13
)

// RecordWireSize is the on-wire size of a binary-encoded record. The
// fixed fields need recordBodySize bytes; the frame is zero-padded up to
// the paper's 200 B status-packet size so the MAC-emulation, bandwidth
// and Figure 6 results keep the paper's packet-size assumption. The
// padding doubles as the carrier for the pipeline trace context
// (obsv.TraceContext): traced frames place a 50-byte trace blob at offset
// recordBodySize, costing no extra wire bytes. Untraced decoders ignore the padding either way.
const (
	recordBodySize = 76
	RecordWireSize = 200
)

// warningWireSize is the fixed size of a binary warning.
const warningWireSize = 41

// summaryFixedSize is the size of a binary summary: header, car, mean,
// count, from-road, updated-ms and a reserved byte that is always 0.
const summaryFixedSize = 38

// AppendRecord appends the binary encoding of r to dst and returns the
// extended slice. The result is exactly RecordWireSize bytes longer than
// dst. The generator-ground-truth Anomalous flag is not carried on the
// wire.
//
//cad3:noalloc
func AppendRecord(dst []byte, r trace.Record) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, RecordWireSize)...)
	b := dst[off:]
	b[0] = hdrRecord
	le.PutUint64(b[1:], uint64(r.Car))
	le.PutUint64(b[9:], uint64(r.Road))
	le.PutUint64(b[17:], math.Float64bits(r.Accel))
	le.PutUint64(b[25:], math.Float64bits(r.Speed))
	le.PutUint64(b[33:], math.Float64bits(r.Lat))
	le.PutUint64(b[41:], math.Float64bits(r.Lon))
	le.PutUint64(b[49:], math.Float64bits(r.Heading))
	b[57] = byte(r.Hour)
	b[58] = byte(r.Day)
	b[59] = byte(r.RoadType)
	le.PutUint64(b[60:], math.Float64bits(r.RoadMeanSpeed))
	le.PutUint64(b[68:], uint64(r.TimestampMs))
	return dst
}

// AppendRecordTraced appends the binary encoding of r with the pipeline
// trace context encoded into the frame's padding bytes. The frame is still
// exactly RecordWireSize bytes — tracing is wire-size free — and the
// encoding allocates nothing beyond the frame itself. DecodeRecord reads
// traced and untraced frames identically; RecordTrace recovers tc.
//
//cad3:noalloc
func AppendRecordTraced(dst []byte, r trace.Record, tc obsv.TraceContext) []byte {
	off := len(dst)
	dst = AppendRecord(dst, r)
	obsv.PutTrace(dst[off+recordBodySize:], tc)
	return dst
}

// RecordTrace extracts the trace context from a binary record payload.
// ok=false for untraced frames (the graceful-degradation path: the
// pipeline runs untraced).
//
//cad3:noalloc
func RecordTrace(b []byte) (obsv.TraceContext, bool) {
	if !isBinary(b, hdrRecord) {
		return obsv.TraceContext{}, false
	}
	return obsv.PayloadTrace(b)
}

// AppendWarning appends the binary encoding of w to dst.
//
//cad3:noalloc
func AppendWarning(dst []byte, w Warning) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, warningWireSize)...)
	b := dst[off:]
	b[0] = hdrWarning
	le.PutUint64(b[1:], uint64(w.Car))
	le.PutUint64(b[9:], uint64(w.Road))
	le.PutUint64(b[17:], math.Float64bits(w.PNormal))
	le.PutUint64(b[25:], uint64(w.SourceTsMs))
	le.PutUint64(b[33:], uint64(w.DetectedTsMs))
	return dst
}

// AppendWarningTraced appends the binary warning followed by a trace-blob
// tail carrying tc — the warning-side trace transport (warnings have no
// padding, so the context rides a fixed-size tail instead). DecodeWarning
// ignores the tail; WarningTrace recovers it.
//
//cad3:noalloc
func AppendWarningTraced(dst []byte, w Warning, tc obsv.TraceContext) []byte {
	dst = AppendWarning(dst, w)
	off := len(dst)
	dst = append(dst, make([]byte, obsv.TraceBlobSize)...)
	obsv.PutTrace(dst[off:], tc)
	return dst
}

// WarningTrace extracts the trace context from a binary warning payload.
// ok=false for untraced warnings.
//
//cad3:noalloc
func WarningTrace(b []byte) (obsv.TraceContext, bool) {
	if !isBinary(b, hdrWarning) {
		return obsv.TraceContext{}, false
	}
	return obsv.PayloadTrace(b)
}

// AppendSummary appends the summaryFixedSize-byte binary encoding of s to
// dst. A summary whose Count does not fit an unsigned 32-bit integer is an
// error and leaves dst unchanged.
func AppendSummary(dst []byte, s PredictionSummary) ([]byte, error) {
	if s.Count < 0 || int64(s.Count) > math.MaxUint32 {
		return dst, fmt.Errorf("encode summary: count %d outside uint32", s.Count)
	}
	off := len(dst)
	dst = append(dst, make([]byte, summaryFixedSize)...)
	b := dst[off:]
	b[0] = hdrSummary
	le.PutUint64(b[1:], uint64(s.Car))
	le.PutUint64(b[9:], math.Float64bits(s.MeanPNormal))
	le.PutUint32(b[17:], uint32(s.Count))
	le.PutUint64(b[21:], uint64(s.FromRoad))
	le.PutUint64(b[29:], uint64(s.UpdatedMs))
	b[37] = 0 // reserved; written so the layout analyzer sees all 38 bytes
	return dst, nil
}

var le = binary.LittleEndian

// isBinary reports whether b starts with the given version-1 binary
// header. Anything else — JSON, an unknown future version, garbage — is
// not a binary payload of that type.
//
//cad3:noalloc
func isBinary(b []byte, hdr byte) bool {
	return len(b) > 0 && b[0] == hdr
}

// EncodeRecord serializes a vehicle status record for IN-DATA using the
// binary codec (RecordWireSize bytes — the paper's 200 B packet).
func EncodeRecord(r trace.Record) ([]byte, error) {
	return AppendRecord(make([]byte, 0, RecordWireSize), r), nil
}

// DecodeRecord parses a binary IN-DATA payload.
func DecodeRecord(b []byte) (trace.Record, error) {
	if !isBinary(b, hdrRecord) {
		return trace.Record{}, fmt.Errorf("decode record: not a binary record (%d bytes)", len(b))
	}
	if len(b) < recordBodySize {
		return trace.Record{}, fmt.Errorf("decode record: truncated binary payload (%d bytes)", len(b))
	}
	return trace.Record{
		Car:           trace.CarID(le.Uint64(b[1:])),
		Road:          geo.SegmentID(le.Uint64(b[9:])),
		Accel:         math.Float64frombits(le.Uint64(b[17:])),
		Speed:         math.Float64frombits(le.Uint64(b[25:])),
		Lat:           math.Float64frombits(le.Uint64(b[33:])),
		Lon:           math.Float64frombits(le.Uint64(b[41:])),
		Heading:       math.Float64frombits(le.Uint64(b[49:])),
		Hour:          int(b[57]),
		Day:           int(b[58]),
		RoadType:      geo.RoadType(b[59]),
		RoadMeanSpeed: math.Float64frombits(le.Uint64(b[60:])),
		TimestampMs:   int64(le.Uint64(b[68:])),
	}, nil
}

// DecodeWarning parses a binary OUT-DATA payload.
func DecodeWarning(b []byte) (Warning, error) {
	if !isBinary(b, hdrWarning) {
		return Warning{}, fmt.Errorf("decode warning: not a binary warning (%d bytes)", len(b))
	}
	if len(b) < warningWireSize {
		return Warning{}, fmt.Errorf("decode warning: truncated binary payload (%d bytes)", len(b))
	}
	return Warning{
		Car:          trace.CarID(le.Uint64(b[1:])),
		Road:         int64(le.Uint64(b[9:])),
		PNormal:      math.Float64frombits(le.Uint64(b[17:])),
		SourceTsMs:   int64(le.Uint64(b[25:])),
		DetectedTsMs: int64(le.Uint64(b[33:])),
	}, nil
}

// EncodeSummary serializes a summary for CO-DATA using the binary codec
// (see AppendSummary for what it refuses).
func EncodeSummary(s PredictionSummary) ([]byte, error) {
	return AppendSummary(make([]byte, 0, summaryFixedSize), s)
}

// DecodeSummary parses a binary CO-DATA payload: exactly summaryFixedSize
// bytes with the reserved byte 0. It allocates only on error.
func DecodeSummary(b []byte) (PredictionSummary, error) {
	if !isBinary(b, hdrSummary) {
		return PredictionSummary{}, fmt.Errorf("decode summary: not a binary summary (%d bytes)", len(b))
	}
	if len(b) != summaryFixedSize {
		return PredictionSummary{}, fmt.Errorf("decode summary: %d bytes, want %d", len(b), summaryFixedSize)
	}
	if b[37] != 0 {
		return PredictionSummary{}, fmt.Errorf("decode summary: reserved byte is %#x, want 0", b[37])
	}
	return PredictionSummary{
		Car:         trace.CarID(le.Uint64(b[1:])),
		MeanPNormal: math.Float64frombits(le.Uint64(b[9:])),
		Count:       int(le.Uint32(b[17:])),
		FromRoad:    int64(le.Uint64(b[21:])),
		UpdatedMs:   int64(le.Uint64(b[29:])),
	}, nil
}

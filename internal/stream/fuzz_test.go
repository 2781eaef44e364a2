package stream

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// FuzzWireDecoder hardens the binary protocol decoder against arbitrary
// payloads: whatever the bytes, decoding must neither panic nor fabricate
// a successful parse of a short buffer. Run with `go test -fuzz
// FuzzWireDecoder ./internal/stream` for continuous fuzzing; plain `go
// test` exercises the seed corpus.
func FuzzWireDecoder(f *testing.F) {
	// Seed with a valid frame and mutations of it.
	var enc wireEncoder
	enc.reset(respFetch)
	enc.messages([]Message{{
		Topic: "IN-DATA", Partition: 2, Offset: 42,
		Key: []byte("car-7"), Value: []byte("payload"),
		AppendedAt: time.Unix(0, 1467331200000000000),
	}})
	valid := append([]byte(nil), enc.frame()[frameHeaderSize:]...)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wireDecoder{buf: data}
		msgs := dec.messages(nil, "", 1<<20)
		if dec.err != nil {
			return // rejected, fine
		}
		// Accepted: every decoded message must be internally consistent
		// and the decoder must not have read past the buffer.
		if dec.pos > len(data) {
			t.Fatalf("decoder position %d beyond buffer %d", dec.pos, len(data))
		}
		for _, m := range msgs {
			if len(m.Topic) > len(data) || len(m.Key) > len(data) || len(m.Value) > len(data) {
				t.Fatalf("decoded fields larger than input: %+v", m)
			}
		}
	})
}

// FuzzBatchRequestDecoder hardens the zero-copy batched-produce decoder
// against hostile frames: truncated batches, record lengths overlapping
// the frame end, zero-record batches, and implausible record counts. The
// decoder must either reject the buffer or visit exactly n in-bounds
// records, never reading past the payload.
func FuzzBatchRequestDecoder(f *testing.F) {
	// Seed with a valid two-record batch (keyed + keyless) built the same
	// way the client builds the frame header.
	var enc wireEncoder
	enc.reset(reqProduceBatch)
	enc.str("IN-DATA")
	part := int32(AutoPartition)
	enc.u32(uint32(part))
	enc.u32(2)
	enc.bytes([]byte("car-7"))
	enc.bytes([]byte("payload"))
	enc.bytes(nil)
	enc.bytes([]byte("v2"))
	valid := append([]byte(nil), enc.frame()[frameHeaderSize:]...)
	f.Add(valid)
	// Zero-record batch.
	enc.reset(reqProduceBatch)
	enc.str("t")
	enc.u32(0)
	enc.u32(0)
	f.Add(append([]byte(nil), enc.frame()[frameHeaderSize:]...))
	// Count promises more records than the payload holds.
	enc.reset(reqProduceBatch)
	enc.str("t")
	enc.u32(0)
	enc.u32(1000)
	enc.bytes([]byte("k"))
	enc.bytes([]byte("v"))
	f.Add(append([]byte(nil), enc.frame()[frameHeaderSize:]...))
	// Record length prefix overlapping the end of the frame.
	overlap := append([]byte(nil), valid...)
	overlap[len(overlap)-6] = 0xff
	f.Add(overlap)
	// Truncations of the valid frame.
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wireDecoder{buf: data}
		visited := 0
		topic, _, n, err := decodeBatchRequest(&dec, func(i int, topic string, partition int32, key, value []byte) {
			if i != visited {
				t.Fatalf("record index %d, expected %d", i, visited)
			}
			visited++
			// Zero-copy contract: every record slice lives inside the
			// input buffer.
			if len(key) > len(data) || len(value) > len(data) {
				t.Fatalf("record %d larger than input: key=%d value=%d", i, len(key), len(value))
			}
		})
		if err != nil {
			return // rejected, fine — but the callback count still bounds visits
		}
		if visited != n {
			t.Fatalf("decoder reported %d records but visited %d", n, visited)
		}
		if dec.pos > len(data) {
			t.Fatalf("decoder position %d beyond buffer %d", dec.pos, len(data))
		}
		if len(topic) > len(data) {
			t.Fatalf("topic %d bytes from %d-byte input", len(topic), len(data))
		}
	})
}

// FuzzBatchResponseDecoder hardens the client-side parse of a batched
// produce response (the per-record status stream PendingBatch.Await
// walks).
func FuzzBatchResponseDecoder(f *testing.F) {
	var enc wireEncoder
	enc.reset(respProduceBatch)
	enc.u32(3)
	var ok [batchOKResultSize]byte
	putBatchOK(ok[:], 2, 41)
	enc.buf = append(enc.buf, ok[:]...)
	enc.byte1(batchStatusBackpressure)
	enc.u64(1500)
	enc.byte1(batchStatusError)
	enc.str("unknown topic \"nope\"")
	valid := append([]byte(nil), enc.frame()[frameHeaderSize:]...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0, 0, 0, 1, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wireDecoder{buf: data}
		n := int(dec.u32())
		if dec.err != nil || n < 0 || n > maxBatchRecords {
			return
		}
		for i := 0; i < n; i++ {
			switch dec.byte1() {
			case batchStatusOK:
				dec.u32()
				dec.u64()
			case batchStatusBackpressure:
				dec.u64()
			case batchStatusError:
				dec.str()
			default:
				return
			}
			if dec.err != nil {
				return
			}
		}
		if dec.pos > len(data) {
			t.Fatalf("decoder position %d beyond buffer %d", dec.pos, len(data))
		}
	})
}

// FuzzReadFrame hardens the frame reader against corrupt length prefixes.
func FuzzReadFrame(f *testing.F) {
	var enc wireEncoder
	enc.reset(reqProduce)
	enc.str("t")
	enc.u32(0)
	enc.bytes(nil)
	enc.bytes([]byte("v"))
	f.Add(append([]byte(nil), enc.frame()...))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Plain and buffered readers take different paths to the length
		// prefix; both must agree on what the bytes are.
		frame, err := readFrame(bytes.NewReader(data), DefaultMaxFrameSize)
		buffered, berr := readFrame(bufio.NewReader(bytes.NewReader(data)), DefaultMaxFrameSize)
		if (err == nil) != (berr == nil) || !bytes.Equal(frame, buffered) {
			t.Fatalf("plain reader: %d bytes, %v; buffered: %d bytes, %v", len(frame), err, len(buffered), berr)
		}
		if err != nil {
			return
		}
		if len(frame) == 0 || len(frame) > len(data)-4 {
			t.Fatalf("frame body %d bytes from %d-byte input", len(frame), len(data))
		}
	})
}

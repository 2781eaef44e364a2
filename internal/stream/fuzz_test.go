package stream

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// FuzzWireDecoder hardens the fetch-answer decoder against arbitrary
// payloads, as answers to two reads (partitions 0 and 1) with a large and
// a small max: whatever the bytes, the check must neither panic nor
// pass an answer that the lend then reads past, and what it lends must
// keep to the reads and to max. Run with `go test -fuzz FuzzWireDecoder
// ./internal/stream` for continuous fuzzing; plain `go test` exercises the
// seed corpus.
func FuzzWireDecoder(f *testing.F) {
	at := time.Unix(0, 1467331200000000000)
	rec := func(key, value string) Message {
		return Message{Key: []byte(key), Value: []byte(value), AppendedAt: at}
	}
	seed := func(sections []answerSection, cut int) []byte {
		frame, _ := encodeAnswer(sections, cut)
		return frame[frameHeaderSize:]
	}
	two := []answerSection{
		{partition: 0, base: 42, msgs: []Message{rec("car-7", "payload"), rec("", "")}},
		{partition: 1, base: 7, msgs: []Message{rec("car-8", "payload"), rec("car-9", "p")}},
	}
	valid := seed(two, 0)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(valid[:len(valid)/2])
	// An empty answer: both reads, no records.
	f.Add(seed([]answerSection{{partition: 0}, {partition: 1}}, 0))
	// One section, which meets a max of 2.
	f.Add(seed(two[:1], 0))
	// Cut inside the second section.
	f.Add(seed(two, 3))
	// More sections than reads.
	f.Add(seed(append(two, answerSection{partition: 2}, answerSection{partition: 3}), 0))
	// An error section.
	f.Add(seed([]answerSection{{partition: 0, failure: "stream: partition down"}, two[1]}, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, max := range []int{1 << 20, 2} {
			reads := []PartitionRead{{Partition: 0}, {Partition: 1}}
			dec := wireDecoder{buf: data}
			if _, err := dec.walkAnswer("IN-DATA", reads, max, nil); err != nil {
				continue // rejected, fine
			}
			// Accepted: the lend reads to the end of the buffer and no
			// further, lends no more than max, each message of a read's
			// partition.
			dec.pos = 0
			lent := 0
			n, err := dec.walkAnswer("IN-DATA", reads, max, func(m Message) {
				lent++
				if m.Partition < 0 || m.Partition > 1 || len(m.Key)+len(m.Value) > len(data) {
					t.Fatalf("lent a message outside the reads or the input: %+v", m)
				}
			})
			if err != nil || dec.pos != len(data) {
				t.Fatalf("a checked answer decoded to %d of %d bytes, error %v", dec.pos, len(data), err)
			}
			if n != lent || n > max {
				t.Fatalf("lent %d, reported %d, max %d", lent, n, max)
			}
		}
	})
}

// FuzzFetchRequest hardens the server's parse of a fetch request — the
// untrusted read count and partition list — against hostile frames: it
// must either reject the buffer or return exactly the reads the frame
// holds, never reading past it.
func FuzzFetchRequest(f *testing.F) {
	var enc wireEncoder
	enc.reset(reqFetch)
	enc.str("IN-DATA")
	enc.u32(256)
	enc.u32(3)
	for p := 0; p < 3; p++ {
		enc.u32(uint32(p))
		enc.u64(uint64(100 * p))
	}
	valid := append([]byte(nil), enc.frame()[frameHeaderSize:]...)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	// A read count far beyond the reads in the frame.
	huge := append([]byte(nil), valid...)
	copy(huge[4+len("IN-DATA")+4:], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wireDecoder{buf: data}
		topic, _, reads, err := decodeFetchRequest(&dec, nil)
		if err != nil {
			return // rejected, fine
		}
		if dec.pos > len(data) || len(topic)+len(reads)*fetchReadSize > len(data) {
			t.Fatalf("%d reads and a %d-byte topic from %d bytes (decoder at %d)", len(reads), len(topic), len(data), dec.pos)
		}
		if len(reads) > maxFetchReads {
			t.Fatalf("%d reads, over the %d bound", len(reads), maxFetchReads)
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
		topic, _, n, err := decodeBatchRequest(&dec, func(i int, key, value []byte) {
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

package stream

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkProduce(b *testing.B) {
	broker := NewBroker(BrokerConfig{})
	if err := broker.CreateTopic("t", 3); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 200)
	key := []byte("car-42")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := broker.Produce("t", AutoPartition, key, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetch64(b *testing.B) {
	broker := NewBroker(BrokerConfig{})
	if err := broker.CreateTopic("t", 1); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 200)
	for i := 0; i < 1<<14; i++ {
		if _, _, err := broker.Produce("t", 0, nil, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	var off int64
	for i := 0; i < b.N; i++ {
		msgs, err := broker.Fetch("t", 0, off, 64)
		if err != nil {
			b.Fatal(err)
		}
		if len(msgs) == 0 {
			off = 0
			continue
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	sections := make([]answerSection, 3)
	reads := make([]PartitionRead, 3)
	for p := range sections {
		sections[p].partition = int32(p)
		reads[p].Partition = int32(p)
	}
	for i := 0; i < 64; i++ {
		s := &sections[i%3]
		s.msgs = append(s.msgs, Message{Key: []byte(fmt.Sprintf("car-%d", i)), Value: make([]byte, 200)})
	}
	b.ResetTimer()
	b.ReportAllocs()
	var enc wireEncoder
	for i := 0; i < b.N; i++ {
		enc.reset(respFetch)
		for _, s := range sections {
			at := enc.openSection(s.partition)
			for _, m := range s.msgs {
				enc.record(m)
			}
			enc.closeSection(at, len(s.msgs), 0)
		}
		frame := enc.frame()
		out, err := decodeAnswer(frame[frameHeaderSize:], "IN-DATA", reads, 64)
		if len(out) != 64 || err != nil {
			b.Fatalf("decode: %d msgs, err %v", len(out), err)
		}
		RecycleMessages(out)
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	broker := NewBroker(BrokerConfig{})
	s, err := NewServer(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 3); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Produce("t", AutoPartition, nil, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireServer stands up a TCP broker for the throughput benchmarks.
func benchWireServer(b *testing.B) *Server {
	b.Helper()
	broker := NewBroker(BrokerConfig{})
	s, err := NewServer(broker, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := broker.CreateTopic("t", 3); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkWireThroughput compares messages/second over a real TCP
// connection across two wire shapes: single-record produces pipelined
// through the window of in-flight requests, and batched produce (many
// records per frame). Payloads are vehicle-telemetry sized (64 B — a CAN/GPS sample)
// so the wire cost, not the broker's payload copy, dominates. ns/op is
// per record; msgs/sec is reported explicitly.
func BenchmarkWireThroughput(b *testing.B) {
	payload := make([]byte, 64)
	key := []byte("car-42")

	b.Run("pipelined", func(b *testing.B) {
		s := benchWireServer(b)
		c, err := Dial(s.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		// Keep the window full from a fixed set of senders: each goroutine
		// is a synchronous caller, the connection pipelines them.
		const senders = 16
		b.ResetTimer()
		b.ReportAllocs()
		b.SetParallelism(senders)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := c.Produce("t", AutoPartition, key, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	})

	b.Run("batched", func(b *testing.B) {
		s := benchWireServer(b)
		c, err := Dial(s.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		const batch, window = 128, 4
		recs := make([]BatchRecord, batch)
		for i := range recs {
			recs[i] = BatchRecord{Key: key, Value: payload}
		}
		res := make([]BatchResult, batch)
		b.ResetTimer()
		b.ReportAllocs()
		// b.N counts records; keep `window` batches in flight so the wire
		// never drains.
		var pending [window]PendingBatch
		inFlight := 0
		sent := 0
		for sent < b.N {
			if inFlight == window {
				if err := pending[0].Await(res); err != nil {
					b.Fatal(err)
				}
				copy(pending[:], pending[1:])
				inFlight--
			}
			pb, err := c.ProduceBatchIssue("t", AutoPartition, recs)
			if err != nil {
				b.Fatal(err)
			}
			pending[inFlight] = pb
			inFlight++
			sent += batch
		}
		for i := 0; i < inFlight; i++ {
			if err := pending[i].Await(res); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/sec")
	})
}

// BenchmarkWireBatchEncode measures the client-side cost of assembling a
// 64-record batch frame (header + vectored iov), independent of the
// network: this is the //cad3:noalloc hot path.
func BenchmarkWireBatchEncode(b *testing.B) {
	recs := make([]BatchRecord, 64)
	payload := make([]byte, 200)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte("car-42"), Value: payload}
	}
	c := &TCPClient{peerMax: DefaultMaxFrameSize}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := batchFrameSize("t", recs)
		c.encodeBatchLocked("t", AutoPartition, recs, total)
	}
}

// BenchmarkReplicaSetProduce is one 200 B produce through a 3-replica
// in-process ReplicaSet at each ack level. acks=all is the push path: the
// record is on both followers before the produce returns. At acks=0/1 the
// followers only catch up at Tick, which runs every 1024 records outside
// the timer so the leader's log never outruns them.
func BenchmarkReplicaSetProduce(b *testing.B) {
	for _, acks := range []AckLevel{AckNone, AckLeader, AckAll} {
		b.Run("acks="+acks.String(), func(b *testing.B) {
			rs, err := NewReplicaSet(ReplicaSetConfig{},
				Replica{ID: "r0", Broker: NewBroker(BrokerConfig{})},
				Replica{ID: "r1", Broker: NewBroker(BrokerConfig{})},
				Replica{ID: "r2", Broker: NewBroker(BrokerConfig{})})
			if err != nil {
				b.Fatal(err)
			}
			if err := rs.CreateTopic("t", 3); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 200)
			key := []byte("car-42")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rs.Produce("t", AutoPartition, key, payload, acks); err != nil {
					b.Fatal(err)
				}
				if acks != AckAll && i%1024 == 1023 {
					b.StopTimer()
					rs.Tick()
					b.StartTimer()
				}
			}
		})
	}
}

// benchReplicaSet is three in-process replicas of one three-partition
// topic, each log bounded at retained records.
func benchReplicaSet(b *testing.B, retained int) *ReplicaSet {
	b.Helper()
	bcfg := BrokerConfig{MaxRetainedPerPartition: retained}
	rs, err := NewReplicaSet(ReplicaSetConfig{Rebuild: bcfg},
		Replica{ID: "r0", Broker: NewBroker(bcfg)},
		Replica{ID: "r1", Broker: NewBroker(bcfg)},
		Replica{ID: "r2", Broker: NewBroker(bcfg)})
	if err != nil {
		b.Fatal(err)
	}
	if err := rs.CreateTopic("t", 3); err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkReplicaSetProduceBatch is a 256-record window of keyed 200 B
// records from 64 cars through ProduceBatchAcksInto; ns/op is per record.
// acks=all is one append per partition on the leader and one push per
// follower per partition; at acks=1 the followers catch up at a Tick
// outside the timer, as in BenchmarkReplicaSetProduce.
func BenchmarkReplicaSetProduceBatch(b *testing.B) {
	for _, acks := range []AckLevel{AckLeader, AckAll} {
		b.Run("acks="+acks.String(), func(b *testing.B) {
			client := benchReplicaSet(b, 4096).Client(acks)
			recs := make([]BatchRecord, 256)
			for i := range recs {
				recs[i] = BatchRecord{Key: []byte(fmt.Sprintf("car-%d", i*37%64)), Value: make([]byte, 200)}
			}
			res := make([]BatchResult, len(recs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(recs) {
				if err := client.ProduceBatchAcksInto("t", AutoPartition, recs, res, acks); err != nil {
					b.Fatal(err)
				}
				if acks != AckAll && i/len(recs)%4 == 3 {
					b.StopTimer()
					client.rs.Tick()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkReplicaSetRevive is one kill and revival of a follower whose
// peers retain 4,096 records of 200 B on each of three partitions; ns/op
// is the pair, nearly all of it the copy of a live peer's logs.
func BenchmarkReplicaSetRevive(b *testing.B) {
	rs := benchReplicaSet(b, 4096)
	key, value := []byte("car-42"), make([]byte, 200)
	for i := 0; i < 3*4096; i++ {
		if _, _, err := rs.Produce("t", int32(i%3), key, value, AckAll); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.Kill("r2"); err != nil {
			b.Fatal(err)
		}
		if _, err := rs.Revive("r2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionLog is the partition log alone, full at 4,096
// retained 200 B records so retention and chunk turnover are part of
// every figure. ns/op is per record on all four.
func BenchmarkPartitionLog(b *testing.B) {
	const retained = 4096
	now := time.Unix(1_600_000_000, 0)

	b.Run("append", func(b *testing.B) {
		l, recs := warmedFullLog(b, retained)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.append(recs[0].Key, recs[0].Value, now, nil)
		}
	})
	b.Run("appendBatch", func(b *testing.B) {
		l, recs := warmedFullLog(b, retained)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(recs) {
			l.appendBatch(recs, now)
		}
	})
	b.Run("appendReplica", func(b *testing.B) {
		l, recs := warmedFullLog(b, retained)
		rec := []ReplicaRecord{{Key: recs[0].Key, Value: recs[0].Value, AppendedAtNs: now.UnixNano()}}
		hwm := l.highWaterMark()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ { // the acks=all push: one record at the tail
			if _, _, err := l.appendReplica(hwm+int64(i), rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		l, _ := warmedFullLog(b, retained)
		base := l.baseOffset()
		span := l.highWaterMark() - base
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 64 {
			msgs, _ := l.read(base+int64(i)%(span-64), 64)
			RecycleMessages(msgs)
		}
	})
}

// BenchmarkConsumerPollWire is one poll of a 256-record backlog spread
// over the topic's partitions, across a loopback connection: one fetch
// frame whatever the partition count, where reads in turn pay a round trip
// per partition.
func BenchmarkConsumerPollWire(b *testing.B) {
	for _, partitions := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("%dpartitions", partitions), func(b *testing.B) {
			broker := NewBroker(BrokerConfig{MaxRetainedPerPartition: 4096})
			if err := broker.CreateTopic("t", partitions); err != nil {
				b.Fatal(err)
			}
			s, err := NewServer(broker, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			conn, err := Dial(s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			c, err := NewConsumer(conn, "t", 0)
			if err != nil {
				b.Fatal(err)
			}
			const window = 256
			recs := make([]BatchRecord, window)
			for i := range recs {
				recs[i] = BatchRecord{Key: []byte(fmt.Sprintf("car-%d", i%64)), Value: make([]byte, 200)}
			}
			var buf []Message
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := broker.ProduceBatch("t", AutoPartition, recs, func(int, int32, int64, error) {}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				buf, err = c.PollInto(buf[:0], 8192)
				if err != nil || len(buf) != window {
					b.Fatalf("poll returned %d messages, %v", len(buf), err)
				}
				RecycleMessages(buf)
			}
		})
	}
}

// BenchmarkConsumerPollEach is one micro-batch window read the way the
// RSU node reads it — every message lent to a callback, none copied out —
// from a broker in the same process and from one behind a pipelined
// connection. PollInto (plus the recycle its caller owes) is alongside as
// the owning read it replaced on that path.
func BenchmarkConsumerPollEach(b *testing.B) {
	const window, partitions = 256, 3
	recs := make([]BatchRecord, window)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte(fmt.Sprintf("car-%d", i%64)), Value: make([]byte, 200)}
	}
	for _, remote := range []bool{false, true} {
		for _, lent := range []bool{true, false} {
			name := map[bool]string{false: "inproc", true: "wire"}[remote] + "/" + map[bool]string{true: "PollEach", false: "PollInto"}[lent]
			b.Run(name, func(b *testing.B) {
				broker := NewBroker(BrokerConfig{MaxRetainedPerPartition: 4096})
				if err := broker.CreateTopic("t", partitions); err != nil {
					b.Fatal(err)
				}
				var client Client = NewInProcClient(broker)
				if remote {
					s, err := NewServer(broker, "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					conn, err := Dial(s.Addr())
					if err != nil {
						b.Fatal(err)
					}
					defer conn.Close()
					client = conn
				}
				c, err := NewConsumer(client, "t", 0)
				if err != nil {
					b.Fatal(err)
				}
				var buf []Message
				var bytes int
				visit := func(m Message) { bytes += len(m.Value) }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := broker.ProduceBatch("t", AutoPartition, recs, func(int, int32, int64, error) {}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					n := 0
					if lent {
						n, err = c.PollEach(8192, visit)
					} else {
						buf, err = c.PollInto(buf[:0], 8192)
						n = len(buf)
						RecycleMessages(buf)
					}
					if err != nil || n != window {
						b.Fatalf("poll returned %d messages, %v", n, err)
					}
				}
			})
		}
	}
}

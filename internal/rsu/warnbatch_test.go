package rsu

import (
	"encoding/binary"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cad3/internal/chaos"
	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/obsv"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// countingClient counts the produce traffic a node sends to OUT-DATA: how
// many single-record calls and how many batch calls.
type countingClient struct {
	stream.Client
	produces atomic.Int64
	batches  atomic.Int64
}

func (c *countingClient) Produce(topic string, partition int32, key, value []byte) (int32, int64, error) {
	if topic == stream.TopicOutData {
		c.produces.Add(1)
	}
	return c.Client.Produce(topic, partition, key, value)
}

func (c *countingClient) ProduceBatchInto(topic string, partition int32, recs []stream.BatchRecord, res []stream.BatchResult) error {
	if topic == stream.TopicOutData {
		c.batches.Add(1)
	}
	return c.Client.ProduceBatchInto(topic, partition, recs, res)
}

// warnKey identifies a warning by what the node copies from the record.
type warnKey struct {
	car trace.CarID
	ts  int64
}

// mixedRecords is a window of link traffic over a few cars, every fourth
// record far outside the trained speed range. Timestamps rise, so a car's
// warnings have an order to keep.
func mixedRecords(cars, n int, startMs int64) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		speed := 35.0
		if i%4 == 1 {
			speed = 90
		}
		out[i] = mkRec(trace.CarID(500+i%cars), geo.MotorwayLink, speed, 14)
		out[i].TimestampMs = startMs + int64(i)
	}
	return out
}

// feedRecord produces a record keyed by its car, so that a car's records
// share a partition and reach the node in the order they were sent.
func feedRecord(t *testing.T, client stream.Client, rec trace.Record) {
	t.Helper()
	payload, err := core.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Produce(stream.TopicInData, stream.AutoPartition, carKey(rec.Car), payload); err != nil {
		t.Fatal(err)
	}
}

// referenceWarnings is the warning multiset a plain pass of the detector
// raises for the records.
func referenceWarnings(t *testing.T, det core.Detector, recs []trace.Record) map[warnKey]int {
	t.Helper()
	want := map[warnKey]int{}
	for _, r := range recs {
		d, err := det.Detect(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.Abnormal() {
			want[warnKey{r.Car, r.TimestampMs}]++
		}
	}
	if len(want) == 0 {
		t.Fatal("reference pass raised no warnings; the fixture is not testing anything")
	}
	return want
}

// drainWarnings reads all of OUT-DATA through client and, when ordered is
// set (one worker: one batch at a time), checks that a car's warnings lie
// in source order.
func drainWarnings(t *testing.T, client stream.Client, ordered bool) (map[warnKey]int, []stream.Message) {
	t.Helper()
	out, err := stream.NewConsumer(client, stream.TopicOutData, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[warnKey]int{}
	lastTs := map[trace.CarID]int64{}
	var all []stream.Message
	for {
		msgs, err := out.Poll(4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return got, all
		}
		for _, m := range msgs {
			w, err := core.DecodeWarning(m.Value)
			if err != nil {
				t.Fatal(err)
			}
			if want := "car-" + strconv.FormatInt(int64(w.Car), 10); string(m.Key) != want {
				t.Errorf("warning for car %d keyed %q, want %q", w.Car, m.Key, want)
			}
			if ordered && w.SourceTsMs <= lastTs[w.Car] {
				t.Errorf("car %d: warning for ts %d arrived after ts %d", w.Car, w.SourceTsMs, lastTs[w.Car])
			}
			lastTs[w.Car] = w.SourceTsMs
			got[warnKey{w.Car, w.SourceTsMs}]++
		}
		all = append(all, msgs...)
	}
}

func sameWarnings(t *testing.T, got, want map[warnKey]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("warning car %d ts %d: delivered %d times, want %d", k.car, k.ts, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("unexpected warning car %d ts %d (x%d)", k.car, k.ts, n)
		}
	}
}

func total(m map[warnKey]int) int64 {
	var n int64
	for _, c := range m {
		n += int64(c)
	}
	return n
}

func serve(t *testing.T, b *stream.Broker) *stream.TCPClient {
	t.Helper()
	srv, err := stream.NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestWarningsBatchedPerClientKind runs two micro-batches through a
// single-worker node over each kind of client and holds the result against
// the reference pass: the same warnings, once each, a car's in order; on a
// client that takes a batch whole, one produce call per micro-batch and no
// single-record produce; on a fault-injecting wrapper, which writes a batch
// a record at a time, one produce per warning.
func TestWarningsBatchedPerClientKind(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	first := mixedRecords(7, 120, 1000)
	second := mixedRecords(7, 80, 5000)
	want := referenceWarnings(t, link, append(append([]trace.Record{}, first...), second...))

	type fixture struct {
		node    stream.Client      // what the node is given
		feed    stream.Client      // where the test produces IN-DATA and reads OUT-DATA
		count   *countingClient    // nil: batches are written a record at a time
		singles func() int64       // single-record OUT-DATA produces seen
		between func(t *testing.T) // runs between the two micro-batches
	}
	kinds := map[string]func(t *testing.T) fixture{
		"inproc": func(t *testing.T) fixture {
			b := stream.NewBroker(stream.BrokerConfig{})
			cc := &countingClient{Client: stream.NewInProcClient(b)}
			return fixture{node: cc, feed: stream.NewInProcClient(b), count: cc, singles: cc.produces.Load}
		},
		"tcp-v2": func(t *testing.T) fixture {
			b := stream.NewBroker(stream.BrokerConfig{})
			cc := &countingClient{Client: serve(t, b)}
			return fixture{node: cc, feed: stream.NewInProcClient(b), count: cc, singles: cc.produces.Load}
		},
		"client-only": func(t *testing.T) fixture {
			b := stream.NewBroker(stream.BrokerConfig{})
			cc := &countingClient{Client: stream.NewInProcClient(b)}
			// chaos.Client draws a fault per record, so it hands the client
			// underneath one produce per warning.
			return fixture{
				node: chaos.NewClient(nil, "node", "broker", cc), feed: stream.NewInProcClient(b),
				singles: cc.produces.Load,
			}
		},
		"replicated-acks-all": func(t *testing.T) fixture {
			rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{},
				stream.Replica{ID: "r1", Broker: stream.NewBroker(stream.BrokerConfig{})},
				stream.Replica{ID: "r2", Broker: stream.NewBroker(stream.BrokerConfig{})},
				stream.Replica{ID: "r3", Broker: stream.NewBroker(stream.BrokerConfig{})})
			if err != nil {
				t.Fatal(err)
			}
			cc := &countingClient{Client: rs.Client(stream.AckAll)}
			return fixture{
				node: cc, feed: rs.Client(stream.AckAll), count: cc, singles: cc.produces.Load,
				between: func(t *testing.T) {
					id, _, ok := rs.Leader(stream.TopicOutData, 0)
					if !ok {
						t.Fatal("OUT-DATA/0 has no leader")
					}
					if err := rs.Kill(id); err != nil {
						t.Fatal(err)
					}
					rs.Tick() // elect: the second micro-batch meets the new leaders
				},
			}
		},
	}
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			f := build(t)
			n, err := New(Config{Name: "link", Road: 7, Detector: link, Client: f.node, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range first {
				feedRecord(t, f.feed, r)
			}
			if _, err := n.Step(); err != nil {
				t.Fatal(err)
			}
			if f.between != nil {
				f.between(t)
			}
			for _, r := range second {
				feedRecord(t, f.feed, r)
			}
			if _, err := n.Step(); err != nil {
				t.Fatal(err)
			}

			got, _ := drainWarnings(t, f.feed, true)
			sameWarnings(t, got, want)
			st := n.Stats()
			if st.Warnings != total(want) || st.Engine.ProcessErrors != 0 {
				t.Errorf("Stats.Warnings = %d (process errors %d), want %d and 0", st.Warnings, st.Engine.ProcessErrors, total(want))
			}
			if f.count != nil {
				if b, s := f.count.batches.Load(), f.singles(); b != 2 || s != 0 {
					t.Errorf("OUT-DATA saw %d batch calls and %d single produces, want 2 and 0", b, s)
				}
			} else if s := f.singles(); s != total(want) {
				t.Errorf("OUT-DATA saw %d single produces, want one per warning (%d)", s, total(want))
			}
		})
	}
}

// TestWarningRefusalsCountAckedOnly takes one OUT-DATA partition down: the
// warnings keyed to it are refused record by record inside an otherwise
// good batch. Only acknowledged warnings count, and the first refusal
// comes back naming its car.
func TestWarningRefusalsCountAckedOnly(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	for _, remote := range []bool{false, true} {
		b := stream.NewBroker(stream.BrokerConfig{})
		var client stream.Client = stream.NewInProcClient(b)
		if remote {
			client = serve(t, b)
		}
		n, err := New(Config{Name: "link", Road: 7, Detector: link, Client: client, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b.SetPartitionDown(stream.TopicOutData, 1, true)

		recs := mixedRecords(13, 104, 1000)
		items := make([]tracedRecord, len(recs))
		for i, r := range recs {
			items[i] = tracedRecord{rec: r}
		}
		err = n.processRecords(items)
		if err == nil || !strings.HasPrefix(err.Error(), "warn car ") || !errors.Is(err, stream.ErrPartitionDown) {
			t.Fatalf("remote=%v: processRecords error = %v, want warn car N: ... partition unavailable", remote, err)
		}
		b.SetPartitionDown(stream.TopicOutData, 1, false)
		got, msgs := drainWarnings(t, stream.NewInProcClient(b), true)
		for _, m := range msgs {
			if m.Partition == 1 {
				t.Fatalf("remote=%v: a warning reached the downed partition", remote)
			}
		}
		want := referenceWarnings(t, link, recs)
		if acked := n.Stats().Warnings; acked != total(got) || acked == 0 || acked >= total(want) {
			t.Errorf("remote=%v: Stats.Warnings = %d with %d in the log and %d raised; want the acked count, short of all",
				remote, acked, total(got), total(want))
		}
	}
}

// TestWarningBatchTransportFailure closes the node's connection under it:
// the whole batch fails, nothing is counted, the error names the first
// car, and the batch goes back to the pool empty.
func TestWarningBatchTransportFailure(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	b := stream.NewBroker(stream.BrokerConfig{})
	tc := serve(t, b)
	n, err := New(Config{Name: "link", Road: 7, Detector: link, Client: tc, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = tc.Close()

	wb := &warnBatch{}
	for car := trace.CarID(1); car <= 3; car++ {
		wb.add(core.Warning{Car: car, Road: 7, PNormal: 0.1, SourceTsMs: int64(car)}, obsv.TraceContext{})
	}
	err = n.flushWarnings(wb)
	if err == nil || !strings.HasPrefix(err.Error(), "warn car 1: ") || !errors.Is(err, stream.ErrClientClosed) {
		t.Fatalf("flushWarnings error = %v, want warn car 1: ... client closed", err)
	}
	if got := n.Stats().Warnings; got != 0 {
		t.Errorf("Stats.Warnings = %d after a failed batch, want 0", got)
	}
	if len(wb.recs) != 0 || len(wb.meta) != 0 || len(wb.arena) != 0 {
		t.Errorf("batch not emptied: %d records, %d meta, %d arena bytes", len(wb.recs), len(wb.meta), len(wb.arena))
	}
	for i, r := range wb.recs[:3] {
		if r.Key != nil || r.Value != nil {
			t.Errorf("record %d still references the arena", i)
		}
	}
}

// TestTracedWarningsKeepStampsAndRing sends traced telemetry: each warning
// carries the record's context on with the node's stamps added, and the
// trace ring gets one entry per acknowledged warning.
func TestTracedWarningsKeepStampsAndRing(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	client := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{}))
	n, err := New(Config{Name: "link", Road: 7, Detector: link, Client: client, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := mixedRecords(5, 40, 1000)
	for i, r := range recs {
		var tc obsv.TraceContext
		tc.Stamp(obsv.StageSent, time.Now().Add(-time.Millisecond))
		payload := core.AppendRecordTraced(nil, r, tc)
		if i%5 == 0 {
			payload = core.AppendRecord(nil, r) // a few untraced records ride along
		}
		if _, _, err := client.Produce(stream.TopicInData, stream.AutoPartition, carKey(r.Car), payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Step(); err != nil {
		t.Fatal(err)
	}
	_, msgs := drainWarnings(t, client, true)
	traced := 0
	for _, m := range msgs {
		tc, ok := core.WarningTrace(m.Value)
		if !ok {
			continue
		}
		traced++
		if tc.BatchID == 0 || tc.SentMicro == 0 || tc.ArriveMicro == 0 || tc.DequeueMicro == 0 || tc.DetectMicro == 0 {
			t.Errorf("traced warning lost a stamp: %+v", tc)
		}
	}
	if traced == 0 || traced == len(msgs) {
		t.Fatalf("%d of %d warnings traced; the fixture wants both kinds", traced, len(msgs))
	}
	if got := n.TraceRing().Len(); got != traced {
		t.Errorf("trace ring holds %d entries, want one per traced warning (%d)", got, traced)
	}
}

// TestParallelWorkersDeliverEveryWarningOnce runs the engine at the paper's
// six workers (the race detector's case): every worker flushes a batch of
// its own and between them each warning arrives exactly once.
func TestParallelWorkersDeliverEveryWarningOnce(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	b := stream.NewBroker(stream.BrokerConfig{})
	tc := serve(t, b)
	cc := &countingClient{Client: tc}
	n, err := New(Config{Name: "link", Road: 7, Detector: link, Client: cc, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	feed := stream.NewInProcClient(b)
	var all []trace.Record
	for step := 0; step < 4; step++ {
		recs := mixedRecords(31, 600, int64(1000+step*10000))
		all = append(all, recs...)
		for _, r := range recs {
			sendRecord(t, feed, r)
		}
		if _, err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := referenceWarnings(t, link, all)
	got, _ := drainWarnings(t, feed, false)
	sameWarnings(t, got, want)
	if st := n.Stats(); st.Warnings != total(want) {
		t.Errorf("Stats.Warnings = %d, want %d", st.Warnings, total(want))
	}
	if bt, s := cc.batches.Load(), cc.produces.Load(); bt == 0 || bt > 4*6 || s != 0 {
		t.Errorf("%d batch calls and %d single produces over 4 steps of 6 workers, want 1..24 and 0", bt, s)
	}
}

// frameCounter counts the request frames a server reads off its
// connections, by following the length prefixes in the byte stream.
type frameCounter struct {
	net.Listener
	frames atomic.Int64
}

func (l *frameCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, frames: &l.frames}, nil
}

type countedConn struct {
	net.Conn
	frames *atomic.Int64
	hdr    [4]byte
	have   int   // length-prefix bytes seen of the frame being read
	body   int64 // body bytes still to come
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for b := p[:n]; len(b) > 0; {
		if c.body > 0 {
			skip := min(c.body, int64(len(b)))
			c.body -= skip
			b = b[skip:]
			continue
		}
		c.hdr[c.have] = b[0]
		c.have++
		b = b[1:]
		if c.have == len(c.hdr) {
			c.have = 0
			c.body = int64(binary.BigEndian.Uint32(c.hdr[:]))
			c.frames.Add(1)
		}
	}
	return n, err
}

// TestNodeStepRequestFrames counts what a micro-batch costs the node on
// the wire, at the server: a 256-record window raising 64 warnings is one
// fetch frame for each of the two polls, whatever the partition count,
// and one batch frame for the warnings — three frames, three
// write-and-wait round trips — where one produce frame per warning and
// one blocking fetch per partition made about seventy.
func TestNodeStepRequestFrames(t *testing.T) {
	_, link, _, _ := trainedDetectors(t)
	b := stream.NewBroker(stream.BrokerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &frameCounter{Listener: ln}
	srv := stream.NewServerOn(b, counted)
	defer srv.Close()
	tc, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	n, err := New(Config{Name: "link", Road: 7, Detector: link, Client: tc, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	feed := stream.NewInProcClient(b)
	for step := 0; step < 3; step++ {
		recs := mixedRecords(64, 256, int64(1000+step*1000))
		for _, r := range recs {
			feedRecord(t, feed, r)
		}
		before := counted.frames.Load()
		if bs, err := n.Step(); err != nil || bs.Records != len(recs) {
			t.Fatalf("step %d processed %d records, %v", step, bs.Records, err)
		}
		if got := counted.frames.Load() - before; got != 3 {
			t.Errorf("step %d: the node sent %d request frames, want 3 (a fetch per poll, one warning batch)", step, got)
		}
	}
	if got := n.Stats().Warnings; got != 3*64 {
		t.Errorf("Stats.Warnings = %d, want %d", got, 3*64)
	}
}

package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cad3/internal/obsv"
)

// refLog is the reference the slab log is compared against: the
// slice-of-Message partition log this package had before, one heap copy
// per key and value, written for obviousness. It models the admission
// gate as a plain occupancy count.
type refLog struct {
	base                int64
	msgs                []Message
	maxRetained         int
	occupancy, credited int64
	bytesOut            int64 // wire size of everything read since the last clone
}

func refClone(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

func (r *refLog) hwm() int64 { return r.base + int64(len(r.msgs)) }

func (r *refLog) store(key, value []byte, at time.Time) *Message {
	r.msgs = append(r.msgs, Message{Topic: TopicOutData, Offset: r.hwm(), Key: refClone(key), Value: refClone(value), AppendedAt: at})
	return &r.msgs[len(r.msgs)-1]
}

func (r *refLog) drop(n int) {
	r.msgs = r.msgs[n:]
	r.base += int64(n)
	r.creditThrough(r.base)
}

func (r *refLog) creditThrough(offset int64) {
	if offset > r.credited {
		r.occupancy = max(0, r.occupancy-(offset-r.credited))
		r.credited = offset
	}
}

func (r *refLog) append(key, value []byte, now time.Time) *Message {
	r.occupancy++
	m := r.store(key, value, now)
	obsv.StampPayload(m.Value, obsv.StageArrive, now)
	if len(r.msgs) > r.maxRetained {
		r.drop(len(r.msgs) / 2)
	}
	return &r.msgs[len(r.msgs)-1]
}

func (r *refLog) appendBatch(recs []BatchRecord, now time.Time) int64 {
	base := r.hwm()
	if len(recs) == 0 {
		return base // an empty batch does not even run retention
	}
	for _, rec := range recs {
		r.occupancy++
		obsv.StampPayload(r.store(rec.Key, rec.Value, now).Value, obsv.StageArrive, now)
	}
	for len(r.msgs) > r.maxRetained {
		r.drop(len(r.msgs) / 2)
	}
	return base
}

func (r *refLog) appendReplica(base int64, recs []ReplicaRecord) (int64, error) {
	cur := r.hwm()
	if base > cur {
		return 0, ErrOffsetGap
	}
	if skip := int(cur - base); skip < len(recs) {
		recs = recs[skip:]
		if len(r.msgs) == 0 {
			r.base = base + int64(skip) // empty log adopts the sender's base
		}
		for _, rec := range recs { // retention after every record, at its own time
			at := time.Unix(0, rec.AppendedAtNs)
			r.store(rec.Key, rec.Value, at)
			r.occupancy++
			for len(r.msgs) > r.maxRetained {
				r.drop(len(r.msgs) / 2)
			}
		}
	}
	return r.hwm(), nil
}

func (r *refLog) read(offset int64, n int) []Message {
	offset = max(offset, r.base)
	if offset >= r.hwm() || n <= 0 {
		return nil
	}
	end := min(offset+int64(n), r.hwm())
	out := append([]Message(nil), r.msgs[offset-r.base:end-r.base]...)
	r.creditThrough(end)
	return out
}

// reseat is what cloneBroker does to a log it moves into a fresh broker:
// retention is not re-applied, the backlog re-enters a fresh gate as debt,
// and the counters start from zero.
func (r *refLog) reseat(maxRetained int) {
	r.maxRetained = maxRetained
	r.credited, r.occupancy = r.base, int64(len(r.msgs))
	r.bytesOut = 0
}

// sameBytes compares content and nil-ness.
func sameBytes(a, b []byte) bool { return bytes.Equal(a, b) && (a == nil) == (b == nil) }

func sameMessage(got, want Message) bool {
	return got.Topic == want.Topic && got.Partition == want.Partition && got.Offset == want.Offset &&
		got.AppendedAt.UnixNano() == want.AppendedAt.UnixNano() &&
		sameBytes(got.Key, want.Key) && sameBytes(got.Value, want.Value)
}

// opStream decodes a differential run from bytes, so one driver serves
// the seeded test and the fuzzer. An exhausted stream reads zeros.
type opStream struct {
	data []byte
	n    int // bytes drawn; also makes every generated payload distinct
}

func (s *opStream) more() bool { return s.n < len(s.data) }

func (s *opStream) next() int {
	s.n++
	if s.n > len(s.data) {
		return 0
	}
	return int(s.data[s.n-1])
}

// bytes draws a key or value: nil, empty, a few hundred bytes, a traced
// record frame (so StageArrive stamping is compared too), or — for
// values only — more than a chunk.
func (s *opStream) bytes(value bool) []byte {
	var b []byte
	switch kind := s.next() % 8; kind {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		b = make([]byte, obsv.RecordFrameSize)
		obsv.PutTrace(b[obsv.RecordTraceOffset:], obsv.TraceContext{})
	case 3:
		if value {
			b = make([]byte, logChunkSize-300+s.next()*4) // straddles the chunk size
			break
		}
		fallthrough
	default:
		b = make([]byte, 1+s.next()*kind/2)
	}
	for i := 0; i < len(b) && i < 64; i++ {
		b[i] += byte(s.n + i)
	}
	return b
}

// runLogDifferential drives a one-partition broker and the reference log
// through the same operations and compares everything observable after
// every step.
func runLogDifferential(t *testing.T, data []byte) {
	in := &opStream{data: data}
	clock := time.Unix(1_600_000_000, 0)
	cfg := BrokerConfig{
		MaxRetainedPerPartition: 1 + in.next()%24,
		Now:                     func() time.Time { return clock },
		FlowCapacity:            64, // OUT-DATA is never shed, so the bound only counts
	}
	// The committed seeds encode a retention age after the size bound; the
	// draws stay so that they decode into the same operations.
	if in.next()%2 == 1 {
		in.next()
	}
	b := NewBroker(cfg)
	if err := b.CreateTopic(TopicOutData, 1); err != nil {
		t.Fatal(err)
	}
	ref := &refLog{maxRetained: cfg.MaxRetainedPerPartition}
	var retired *Broker // the broker the last clone replaced

	for step := 0; in.more() && step < 2000; step++ {
		op := in.next() % 8
		what := fmt.Sprintf("step %d op %d", step, op)
		switch op {
		case 0, 1: // append, with the stored record a leader push would send
			key, value := in.bytes(false), in.bytes(true)
			var stored ReplicaRecord
			_, off, err := b.produceStored(TopicOutData, 0, key, value, &stored)
			if err != nil {
				t.Fatalf("%s: produce: %v", what, err)
			}
			want := ref.append(key, value, clock)
			if off != want.Offset || stored.AppendedAtNs != clock.UnixNano() ||
				!sameBytes(stored.Key, want.Key) || !sameBytes(stored.Value, want.Value) {
				t.Fatalf("%s: stored record at %d differs from the reference at %d", what, off, want.Offset)
			}
		case 2: // appendBatch
			recs := make([]BatchRecord, in.next()%6)
			for i := range recs {
				recs[i] = BatchRecord{Key: in.bytes(false), Value: in.bytes(true)}
			}
			want := ref.appendBatch(recs, clock)
			err := b.ProduceBatch(TopicOutData, 0, recs, func(i int, _ int32, off int64, err error) {
				if err != nil || off != want+int64(i) {
					t.Fatalf("%s: batch record %d at offset %d (%v), want %d", what, i, off, err, want+int64(i))
				}
			})
			if err != nil {
				t.Fatalf("%s: produce batch: %v", what, err)
			}
		case 3: // appendReplica: overlap, exact tail, gap; stamps at or behind the clock
			base := ref.hwm() - 3 + int64(in.next()%5)
			recs := make([]ReplicaRecord, in.next()%5)
			for i := range recs {
				at := clock.Add(-time.Duration(in.next()%30) * time.Millisecond)
				recs[i] = ReplicaRecord{Key: in.bytes(false), Value: in.bytes(true), AppendedAtNs: at.UnixNano()}
			}
			wantHWM, wantErr := ref.appendReplica(base, recs)
			hwm, err := b.ReplicaAppend(TopicOutData, 0, 0, base, recs)
			if (err != nil) != (wantErr != nil) || hwm != wantHWM {
				t.Fatalf("%s: replica append at %d = (%d, %v), want (%d, %v)", what, base, hwm, err, wantHWM, wantErr)
			}
		case 4: // read: below base, inside, at and past the high watermark
			offset, max := ref.base-2+int64(in.next()%32), in.next()%12-1
			// Every other read borrows (FetchEach, the scan path) instead of
			// cloning (Fetch, the read path): same records, same credits,
			// same bytes booked as read.
			var got []Message
			var err error
			if step%2 == 1 {
				var n int
				n, err = b.FetchEach(TopicOutData, 0, offset, max, func(m Message) { got = append(got, owned(m)) })
				if n != len(got) {
					t.Fatalf("%s: FetchEach reported %d records and lent %d", what, n, len(got))
				}
			} else {
				got, err = b.Fetch(TopicOutData, 0, offset, max)
			}
			if err != nil {
				t.Fatalf("%s: fetch: %v", what, err)
			}
			want := ref.read(offset, max)
			if len(got) != len(want) {
				t.Fatalf("%s: fetch(%d, %d) returned %d records, want %d", what, offset, max, len(got), len(want))
			}
			for i := range got {
				if !sameMessage(got[i], want[i]) {
					t.Fatalf("%s: fetch(%d, %d)[%d] = %+v, want %+v", what, offset, max, i, got[i], want[i])
				}
				ref.bytesOut += int64(want[i].WireSize())
			}
			if step%2 == 0 {
				RecycleMessages(got)
			}
		case 5, 6:
			clock = clock.Add(time.Duration(in.next()%20) * time.Millisecond)
		case 7: // the chunk clone Revive makes, sometimes into a tighter bound
			if in.next()%2 == 1 {
				cfg.MaxRetainedPerPartition = 1 + cfg.MaxRetainedPerPartition/2
			}
			// The donor is the generation the last clone retired, so the
			// clone lands in recycled chunks still holding stale bytes.
			var donorHWM int64
			if retired != nil {
				_ = retired.Close()
				donorHWM, _ = retired.HighWaterMark(TopicOutData, 0)
			}
			clone, err := cloneBroker(cfg, b, retired)
			if err != nil {
				t.Fatalf("%s: clone: %v", what, err)
			}
			requireOwnChunks(t, what, b, clone)
			requireLogMatches(t, what+" (source after cloning)", b, ref)
			if retired != nil {
				d := retired.topics[TopicOutData].partitions[0]
				if hwm, _ := retired.HighWaterMark(TopicOutData, 0); hwm != donorHWM || len(d.index)+len(d.chunks)+len(d.spare) != 0 {
					t.Fatalf("%s: donor left at high watermark %d (was %d) with %d records, %d chunks, %d spares",
						what, hwm, donorHWM, len(d.index), len(d.chunks), len(d.spare))
				}
			}
			retired, b = b, clone
			ref.reseat(cfg.MaxRetainedPerPartition)
		}
		requireLogMatches(t, what, b, ref)
	}
}

// requireLogMatches compares the whole log with the reference without
// reading through it (a read moves credits): offsets, bytes, nil-ness,
// append times, base, high watermark, gate occupancy, bytes read so far
// (lent or cloned alike), and the slab's own
// invariant that the live chunks are exactly the ones the index uses.
func requireLogMatches(t *testing.T, what string, b *Broker, ref *refLog) {
	t.Helper()
	l := b.topics[TopicOutData].partitions[0]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.base != ref.base || len(l.index) != len(ref.msgs) {
		t.Fatalf("%s: log holds [%d, %d), reference [%d, %d)", what, l.base, l.base+int64(len(l.index)), ref.base, ref.hwm())
	}
	if occ := l.gate.Occupancy(); occ != ref.occupancy {
		t.Fatalf("%s: gate occupancy %d, reference %d", what, occ, ref.occupancy)
	}
	if out := b.BytesOut(); out != ref.bytesOut {
		t.Fatalf("%s: %d B booked as read, reference %d", what, out, ref.bytesOut)
	}
	for i, e := range l.index {
		k, v := l.viewLocked(e)
		if want := ref.msgs[i]; e.at != want.AppendedAt.UnixNano() || !sameBytes(k, want.Key) || !sameBytes(v, want.Value) {
			t.Fatalf("%s: offset %d holds (%#v, %d B nil=%t, at %d), reference (%#v, %d B nil=%t, at %d)", what, l.base+int64(i),
				k, len(v), v == nil, e.at, want.Key, len(want.Value), want.Value == nil, want.AppendedAt.UnixNano())
		}
	}
	if n := len(l.index); n > 0 {
		if first, last := l.index[0].chunk, l.index[n-1].chunk; first != l.firstChunk || int(last-first) != len(l.chunks)-1 {
			t.Fatalf("%s: index spans chunks %d..%d, log holds %d from %d", what, first, last, len(l.chunks), l.firstChunk)
		}
	}
	if len(l.spare) > len(l.chunks)+1 {
		t.Fatalf("%s: %d spare chunks beside %d live", what, len(l.spare), len(l.chunks))
	}
	for i, c := range l.spare {
		if len(c) != 0 || cap(c) != logChunkSize {
			t.Fatalf("%s: spare chunk %d holds %d B of %d, want an empty %d B chunk", what, i, len(c), cap(c), logChunkSize)
		}
	}
}

// requireOwnChunks holds a clone's chunks to being its own: as many live
// chunks as the source's at the same capacities, no more spares than
// dropLocked keeps, and none of them the source's memory.
func requireOwnChunks(t *testing.T, what string, src, clone *Broker) {
	t.Helper()
	s, c := src.topics[TopicOutData].partitions[0], clone.topics[TopicOutData].partitions[0]
	if len(c.chunks) != len(s.chunks) || len(c.spare) > len(c.chunks)+1 {
		t.Fatalf("%s: clone holds %d chunks and %d spares, source %d chunks", what, len(c.chunks), len(c.spare), len(s.chunks))
	}
	for i := range c.chunks {
		if cap(c.chunks[i]) != cap(s.chunks[i]) {
			t.Fatalf("%s: clone's chunk %d has capacity %d, the source's %d", what, i, cap(c.chunks[i]), cap(s.chunks[i]))
		}
	}
	requireDistinctChunks(t, what, s, c)
}

// requireDistinctChunks holds that no chunk of the clone's log, live or
// spare, is memory of the source's, live or spare, or another of its own:
// an append to the one would write into the other.
func requireDistinctChunks(t *testing.T, what string, src, clone *partitionLog) {
	t.Helper()
	owner := make(map[*byte]string)
	claim := func(who string, chunks [][]byte) {
		for i, ch := range chunks {
			if cap(ch) == 0 {
				continue
			}
			at := &ch[:1][0]
			if prev, ok := owner[at]; ok {
				t.Fatalf("%s: %s chunk %d is the memory of %s", what, who, i, prev)
			}
			owner[at] = fmt.Sprintf("%s chunk %d", who, i)
		}
	}
	claim("source live", src.chunks)
	claim("source spare", src.spare)
	claim("clone live", clone.chunks)
	claim("clone spare", clone.spare)
}

// TestPartitionLogDifferential runs the differential over seeded random
// operation streams; FuzzPartitionLog explores from the same driver.
func TestPartitionLogDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		runLogDifferential(t, data)
	}
}

func FuzzPartitionLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 9, 0, 4, 4, 2, 5, 2, 2, 9, 7, 1, 4, 0, 9})
	f.Fuzz(runLogDifferential)
}

// newTestLog returns the single partition log of a fresh broker.
func newTestLog(t testing.TB, cfg BrokerConfig) (*Broker, *partitionLog) {
	t.Helper()
	b := NewBroker(cfg)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	return b, b.topics["t"].partitions[0]
}

// TestFetchedBytesOutliveChunkReuse: what a reader fetched is its own —
// later appends, evictions and the reuse of the chunk the record lived in
// never change it.
func TestFetchedBytesOutliveChunkReuse(t *testing.T) {
	b, l := newTestLog(t, BrokerConfig{MaxRetainedPerPartition: 64})
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 2000) }
	for i := 0; i < 64; i++ {
		if _, _, err := b.Produce("t", 0, []byte{byte(i)}, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Fetch("t", 0, 0, 64)
	if err != nil || len(got) != 64 {
		t.Fatalf("fetch: %d records, %v", len(got), err)
	}
	firstChunk := &l.chunks[0][:1][0]
	reused := false
	for i := 64; i < 1024; i++ { // many evictions: every chunk is vacated and refilled
		if _, _, err := b.Produce("t", 0, []byte{byte(i)}, value(i)); err != nil {
			t.Fatal(err)
		}
		reused = reused || (l.firstChunk > 0 && &l.chunks[len(l.chunks)-1][:1][0] == firstChunk)
	}
	if !reused {
		t.Fatal("the log never reused its first chunk: the test did not exercise reuse")
	}
	for i, m := range got {
		if m.Offset != int64(i) || !bytes.Equal(m.Key, []byte{byte(i)}) || !bytes.Equal(m.Value, value(i)) {
			t.Fatalf("fetched record %d changed under later appends", i)
		}
	}
}

// TestStoredViewsAreClipped: the record produceStored hands a replication
// push is a view into the log, and appending to it must reallocate
// rather than scribble on the neighbouring record.
func TestStoredViewsAreClipped(t *testing.T) {
	b, _ := newTestLog(t, BrokerConfig{})
	var first ReplicaRecord
	if _, _, err := b.produceStored("t", 0, []byte("k0"), []byte("v0"), &first); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Produce("t", 0, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_ = append(first.Key, "XXXX"...)
	_ = append(first.Value, "YYYY"...)
	got, err := b.Fetch("t", 0, 0, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("fetch: %d records, %v", len(got), err)
	}
	if string(got[0].Key)+string(got[0].Value)+string(got[1].Key)+string(got[1].Value) != "k0v0k1v1" {
		t.Fatalf("append to a stored view reached the log: %q %q %q %q", got[0].Key, got[0].Value, got[1].Key, got[1].Value)
	}
}

// TestOversizedRecordGetsItsOwnChunk: a MaxMessageSize value round-trips
// through a chunk of its own, which is let go, not kept as a spare, once
// retention vacates it.
func TestOversizedRecordGetsItsOwnChunk(t *testing.T) {
	b, l := newTestLog(t, BrokerConfig{MaxRetainedPerPartition: 4})
	big := make([]byte, MaxMessageSize)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if _, _, err := b.Produce("t", 0, []byte("small"), []byte("before")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Produce("t", 0, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	got, err := b.Fetch("t", 0, 1, 1)
	if err != nil || len(got) != 1 || string(got[0].Key) != "big" || !bytes.Equal(got[0].Value, big) {
		t.Fatalf("1 MiB value did not round-trip (%d records, %v)", len(got), err)
	}
	if _, _, err := b.Produce("t", 0, nil, make([]byte, MaxMessageSize+1)); err != ErrValueTooLarge {
		t.Fatalf("oversized value: %v, want ErrValueTooLarge", err)
	}
	for i := 0; i < 16; i++ {
		if _, _, err := b.Produce("t", 0, nil, []byte("after")); err != nil {
			t.Fatal(err)
		}
	}
	if base := l.baseOffset(); base < 2 {
		t.Fatalf("base %d: the big record was never evicted", base)
	}
	for _, c := range append(append([][]byte(nil), l.chunks...), l.spare...) {
		if cap(c) != logChunkSize {
			t.Fatalf("the log still holds a %d-byte chunk", cap(c))
		}
	}
}

// TestFirstChunkIsLazy: a log nobody appended to owns no chunk, so idle
// partitions and broker set-up cost no slab memory.
func TestFirstChunkIsLazy(t *testing.T) {
	b, l := newTestLog(t, BrokerConfig{})
	if msgs, err := b.Fetch("t", 0, 0, 10); err != nil || len(msgs) != 0 || len(l.chunks)+len(l.spare) != 0 {
		t.Fatalf("empty log: %d records, %v, %d chunks", len(msgs), err, len(l.chunks)+len(l.spare))
	}
}

// warmedFullLog returns a log that has been through enough evictions at
// a fixed record size for its index, chunk list and spare list to have
// reached their steady-state capacity.
func warmedFullLog(t testing.TB, retained int) (*partitionLog, []BatchRecord) {
	_, l := newTestLog(t, BrokerConfig{MaxRetainedPerPartition: retained})
	recs := make([]BatchRecord, 64)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte("car-42"), Value: make([]byte, 200)}
	}
	for i := 0; i < 4*retained/len(recs); i++ {
		l.appendBatch(recs, time.Unix(int64(i), 0))
	}
	return l, recs
}

// TestSteadyStateAppendAllocatesNothing pins the store path's contract:
// on a full log at a steady record size, append and appendBatch — chunk
// turnover and retention included — do not touch the allocator.
func TestSteadyStateAppendAllocatesNothing(t *testing.T) {
	const retained = 4096
	l, recs := warmedFullLog(t, retained)
	now := time.Unix(1_600_000_000, 0)
	// Each measured call is a whole retention cycle, so one allocation per
	// eviction or per chunk would show as a count, not round down to zero.
	if allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < retained; i++ {
			l.append(recs[0].Key, recs[0].Value, now, nil)
		}
	}); allocs != 0 {
		t.Errorf("append allocates %v per %d records on a full log, want 0", allocs, retained)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < retained/len(recs); i++ {
			l.appendBatch(recs, now)
		}
	}); allocs != 0 {
		t.Errorf("appendBatch allocates %v per %d records on a full log, want 0", allocs, retained)
	}
}

package microbatch

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cad3/internal/flow"
	"cad3/internal/stream"
)

func pipelineFixture(t *testing.T) (*stream.Broker, *stream.Producer, *stream.Consumer) {
	t.Helper()
	b := stream.NewBroker(stream.BrokerConfig{})
	if err := b.CreateTopic(stream.TopicInData, stream.DefaultPartitions); err != nil {
		t.Fatal(err)
	}
	client := stream.NewInProcClient(b)
	p, err := stream.NewProducer(client, stream.TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	c, err := stream.NewConsumer(client, stream.TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b, p, c
}

func intDecode(m stream.Message) (int, error) {
	return strconv.Atoi(string(m.Value))
}

func TestEngineStepProcessesAll(t *testing.T) {
	_, p, c := pipelineFixture(t)
	var mu sync.Mutex
	var got []int
	eng, err := NewEngine(Config[int]{
		Source: c,
		Decode: intDecode,
		Process: func(items []int) error {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, items...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		if _, _, err := p.Send(nil, []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	bs, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 100 {
		t.Errorf("batch records = %d, want 100", bs.Records)
	}
	sum := 0
	for _, x := range got {
		sum += x
	}
	if sum != 4950 {
		t.Errorf("processed sum = %d, want 4950", sum)
	}
	st := eng.Stats()
	if st.Batches != 1 || st.Records != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineDecodeErrorsCounted(t *testing.T) {
	_, p, c := pipelineFixture(t)
	eng, err := NewEngine(Config[int]{
		Source:  c,
		Decode:  intDecode,
		Process: func([]int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = p.Send(nil, []byte("42"))
	_, _, _ = p.Send(nil, []byte("not-a-number"))
	_, _, _ = p.Send(nil, []byte("7"))

	bs, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 2 || bs.DecodeErrors != 1 {
		t.Errorf("batch = %+v", bs)
	}
}

func TestEngineProcessErrorKeepsRunning(t *testing.T) {
	_, p, c := pipelineFixture(t)
	eng, err := NewEngine(Config[int]{
		Source:  c,
		Decode:  intDecode,
		Process: func([]int) error { return errors.New("boom") },
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, _, _ = p.Send(nil, []byte("1"))
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.ProcessErrors == 0 {
		t.Error("process errors not counted")
	}
	// Engine still works on the next batch.
	_, _, _ = p.Send(nil, []byte("1"))
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineParallelWorkersAllItemsOnce(t *testing.T) {
	_, p, c := pipelineFixture(t)
	var count atomic.Int64
	eng, err := NewEngine(Config[int]{
		Source: c,
		Decode: intDecode,
		Process: func(items []int) error {
			count.Add(int64(len(items)))
			return nil
		},
		Workers: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1001 // deliberately not divisible by 6
	for i := 0; i < n; i++ {
		_, _, _ = p.Send(nil, []byte("5"))
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if count.Load() != n {
		t.Errorf("processed %d items, want %d", count.Load(), n)
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	_, _, c := pipelineFixture(t)
	called := false
	eng, err := NewEngine(Config[int]{
		Source:  c,
		Decode:  intDecode,
		Process: func([]int) error { called = true; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 0 || called {
		t.Errorf("empty batch: records=%d called=%v", bs.Records, called)
	}
	if eng.Stats().Batches != 1 {
		t.Error("empty batch should still count")
	}
}

func TestNewEngineValidation(t *testing.T) {
	_, _, c := pipelineFixture(t)
	if _, err := NewEngine(Config[int]{Decode: intDecode, Process: func([]int) error { return nil }}); err == nil {
		t.Error("want error for nil source")
	}
	if _, err := NewEngine(Config[int]{Source: c, Process: func([]int) error { return nil }}); err == nil {
		t.Error("want error for nil decode")
	}
	if _, err := NewEngine(Config[int]{Source: c, Decode: intDecode}); !errors.Is(err, ErrNoHandler) {
		t.Errorf("err = %v, want ErrNoHandler", err)
	}
	eng, err := NewEngine(Config[int]{Source: c, Decode: intDecode, Process: func([]int) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Interval() != DefaultInterval {
		t.Errorf("Interval = %v, want %v", eng.Interval(), DefaultInterval)
	}
}

func TestEnginePollErrorSurfaces(t *testing.T) {
	b, _, c := pipelineFixture(t)
	_, _, _ = b.Produce(stream.TopicInData, 0, nil, []byte("1"))
	b.SetPartitionDown(stream.TopicInData, 1, true)
	eng, err := NewEngine(Config[int]{
		Source:  c,
		Decode:  intDecode,
		Process: func([]int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, stepErr := eng.Step()
	if stepErr == nil {
		t.Error("Step should report the poll error")
	}
	if bs.Records != 1 {
		t.Errorf("healthy partitions yielded %d records, want 1", bs.Records)
	}
}

func TestEngineStatsAggregation(t *testing.T) {
	_, p, c := pipelineFixture(t)
	eng, err := NewEngine(Config[int]{
		Source:  c,
		Decode:  intDecode,
		Process: func([]int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 10; i++ {
			_, _, _ = p.Send(nil, []byte(fmt.Sprint(i)))
		}
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Batches != 5 || st.Records != 50 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxProcessingTime < st.AvgProcessingTime() {
		t.Error("max processing time below average")
	}
}

// An adaptive engine shrinks its drain bound when batches overrun the SLO
// and grows it back once saturated batches finish comfortably inside it.
func TestEngineAdaptiveBatchSizing(t *testing.T) {
	_, p, c := pipelineFixture(t)

	// Scripted clock: every call advances by lat, so each Step measures
	// exactly one lat of processing time.
	var now time.Time
	var lat time.Duration
	clock := func() time.Time {
		t := now
		now = now.Add(lat)
		return t
	}

	ctrl := flow.NewBatchController(flow.BatchControllerConfig{
		Min: 4, Max: 64, Initial: 16, Grow: 8, SLO: 50 * time.Millisecond,
	})
	eng, err := NewEngine(Config[int]{
		Source:   c,
		Decode:   intDecode,
		Process:  func([]int) error { return nil },
		Adaptive: ctrl,
		Now:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	fill := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := p.Send(nil, []byte(strconv.Itoa(i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Saturated batch that overruns the SLO: the bound halves.
	fill(200)
	lat = 100 * time.Millisecond
	bs, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 16 {
		t.Fatalf("first batch drained %d, want the initial bound 16", bs.Records)
	}
	if got := ctrl.Size(); got != 8 {
		t.Fatalf("bound after overrun = %d, want 8", got)
	}

	// Saturated batches well inside the SLO: the bound grows additively.
	lat = 5 * time.Millisecond
	if bs, err = eng.Step(); err != nil {
		t.Fatal(err)
	}
	if bs.Records != 8 {
		t.Fatalf("second batch drained %d, want the shrunk bound 8", bs.Records)
	}
	if got := ctrl.Size(); got != 16 {
		t.Fatalf("bound after fast saturated batch = %d, want 16", got)
	}

	// Idle batches leave the bound alone: an empty pipeline is not
	// evidence of capacity.
	for {
		bs, err = eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if bs.Records == 0 {
			break
		}
	}
	before := ctrl.Size()
	if _, err = eng.Step(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Size(); got != before {
		t.Errorf("idle batch moved the bound %d -> %d", before, got)
	}
}

// MaxBatch still caps the adaptive bound: the engine drains at most the
// lower of the two.
func TestEngineAdaptiveRespectsMaxBatch(t *testing.T) {
	_, p, c := pipelineFixture(t)
	ctrl := flow.NewBatchController(flow.BatchControllerConfig{Min: 32, Max: 64, Initial: 64})
	eng, err := NewEngine(Config[int]{
		Source:   c,
		Decode:   intDecode,
		Process:  func([]int) error { return nil },
		Adaptive: ctrl,
		MaxBatch: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := p.Send(nil, []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	bs, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 10 {
		t.Errorf("drained %d, want MaxBatch cap 10", bs.Records)
	}
}

// lentSource lends the same messages on every poll, as a warm in-process
// consumer does, without allocating.
type lentSource struct{ msgs []stream.Message }

func (s *lentSource) Poll(int) ([]stream.Message, error) { return s.msgs, nil }

func (s *lentSource) PollEach(max int, fn func(stream.Message)) (int, error) {
	n := min(max, len(s.msgs))
	for _, m := range s.msgs[:n] {
		fn(m)
	}
	return n, nil
}

// goid returns the calling goroutine's ID, read off its stack header
// ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// TestEngineStepRunsFirstChunkOnCaller: a Step processes its first chunk
// on the goroutine that called it, so with one worker it starts no
// goroutine and allocates nothing; with three it still covers every item
// exactly once, in three chunks.
func TestEngineStepRunsFirstChunkOnCaller(t *testing.T) {
	src := &lentSource{msgs: make([]stream.Message, 100)}
	for i := range src.msgs {
		src.msgs[i].Offset = int64(i)
	}
	decode := func(m stream.Message) (int, error) { return int(m.Offset), nil }
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			caller := goid()
			var mu sync.Mutex
			seen := make([]int, len(src.msgs))
			calls, onCaller := 0, 0
			eng, err := NewEngine(Config[int]{
				Source: src, Decode: decode, Workers: workers,
				Process: func(items []int) error {
					g := goid()
					mu.Lock()
					defer mu.Unlock()
					calls++
					if g == caller {
						onCaller++
					}
					for _, x := range items {
						seen[x]++
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			for x, n := range seen {
				if n != 1 {
					t.Errorf("item %d processed %d times, want once", x, n)
				}
			}
			if calls != workers || onCaller != 1 {
				t.Errorf("%d Process calls, %d of them on the caller; want %d and 1", calls, onCaller, workers)
			}
		})
	}

	processed := 0
	eng, err := NewEngine(Config[int]{
		Source: src, Decode: decode, Workers: 1,
		Process: func(items []int) error { processed += len(items); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step() // grow the batch buffer
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a warm one-worker Step of %d items: %v allocs, want 0", len(src.msgs), allocs)
	}
	if processed != 102*len(src.msgs) {
		t.Errorf("processed %d items over 102 Steps, want %d", processed, 102*len(src.msgs))
	}
}

// TestEngineStepDecodeErrorsAllocateNothing: a batch of undecodable
// records costs a count per record and nothing else — a warm Step over
// messages whose Decode fails makes no allocation, so hostile bytes
// cannot turn into garbage at the node.
func TestEngineStepDecodeErrorsAllocateNothing(t *testing.T) {
	src := &lentSource{msgs: make([]stream.Message, 100)}
	errBad := errors.New("bad record")
	eng, err := NewEngine(Config[int]{
		Source: src, Workers: 1,
		Decode:  func(stream.Message) (int, error) { return 0, errBad },
		Process: func([]int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		bs, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if bs.DecodeErrors != len(src.msgs) {
			t.Fatalf("decode errors = %d, want %d", bs.DecodeErrors, len(src.msgs))
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a warm Step of %d undecodable records: %v allocs, want 0", len(src.msgs), allocs)
	}
}

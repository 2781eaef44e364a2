package rsu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cad3/internal/core"
	"cad3/internal/geo"
	"cad3/internal/microbatch"
	"cad3/internal/obsv"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// probaSource is what the record loop asked a detector for: the
// probability to feed the summary builder in place of Detect's own.
type probaSource interface {
	PredictProba(rec trace.Record) (float64, error)
}

// referenceProcessRecords is processRecords as a record-at-a-time loop:
// each record folds into the profile, looks up its prior, is counted and
// clocked, is detected on, feeds the summary builder (through PredictProba
// when the detector has it) and passes the cooldown on its own, each under
// its own lock. The twin tests hold the three-pass window to it. The twins
// run on a virtual clock that stands still during a Step, so Observe and
// Get, which read it per call, see the one reading the loop passed along.
func referenceProcessRecords(n *Node, records []tracedRecord) error {
	var firstErr error
	wb := new(warnBatch)
	for i := range records {
		tr := &records[i]
		rec := &tr.rec
		n.records.Add(1)

		n.profile.Observe(rec.Speed)
		if rec.RoadMeanSpeed == 0 {
			if mean, _, ok := n.profile.MeanStd(); ok {
				rec.RoadMeanSpeed = mean
			}
		}

		var prior *core.PredictionSummary
		if s, ok := n.summaries.Get(rec.Car); ok {
			prior = &s
		}
		if n.degraded.Load() && n.cfg.ShedStaleAfter > 0 && n.shouldShed(rec, prior, n.cfg.Now()) {
			n.shedStale.Add(1)
			continue
		}
		if prior != nil {
			n.priorHits.Add(1)
		} else {
			n.priorMisses.Add(1)
			if n.collab {
				n.fallbacks.Add(1)
			}
		}

		det, err := n.cfg.Detector.Detect(*rec, prior)
		if err != nil {
			n.detectErrors.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("detect car %d: %w", rec.Car, err)
			}
			continue
		}

		tc := tr.tc
		if tc.Valid() {
			tc.Stamp(obsv.StageDetect, n.cfg.Now())
			if tc.ArriveMicro >= tc.SentMicro && tc.SentMicro != 0 {
				n.histTx.Observe(tc.ArriveMicro - tc.SentMicro)
			}
			if tc.DequeueMicro >= tc.ArriveMicro && tc.ArriveMicro != 0 {
				n.histQueue.Observe(tc.DequeueMicro - tc.ArriveMicro)
			}
			if tc.DetectMicro >= tc.DequeueMicro && tc.DequeueMicro != 0 {
				n.histProc.Observe(tc.DetectMicro - tc.DequeueMicro)
			}
		}

		pNB := det.PNormal
		if ps, ok := n.cfg.Detector.(probaSource); ok {
			if p, err := ps.PredictProba(*rec); err == nil {
				pNB = p
			}
		}
		n.builder.Observe(rec.Car, pNB)

		if det.Abnormal() {
			wb.add(core.Warning{
				Car:          rec.Car,
				Road:         int64(rec.Road),
				PNormal:      det.PNormal,
				SourceTsMs:   rec.TimestampMs,
				DetectedTsMs: n.cfg.Now().UnixMilli(),
			}, tc)
		}
	}
	if err := n.flushWarnings(wb); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

var errFlaky = errors.New("flaky detector")

// flakyCar picks the cars a flaky detector fails on.
func flakyCar(car trace.CarID) bool { return car%9 == 4 }

// contextual moves a record's speed by how far its road-mean-speed context
// is from the link's nominal 35 km/h. The flaky detectors read the context
// through it, so a backfill that differs shows in every probability.
func contextual(r trace.Record) trace.Record {
	r.Speed += (r.RoadMeanSpeed - 35) / 10
	return r
}

// flakyCAD3 is CAD3 (Weight included, so the node counts fallbacks) that
// reads the road context and fails on some cars.
type flakyCAD3 struct{ *core.CAD3 }

func (d flakyCAD3) Detect(r trace.Record, p *core.PredictionSummary) (core.Detection, error) {
	if flakyCar(r.Car) {
		return core.Detection{}, errFlaky
	}
	return d.CAD3.Detect(contextual(r), p)
}

// flakyAD3 is AD3 that reads the road context and fails on some cars. Its
// PredictProba, which the record loop evaluated a second time, agrees with
// Detect as AD3's does.
type flakyAD3 struct{ *core.AD3 }

func (d flakyAD3) Detect(r trace.Record, p *core.PredictionSummary) (core.Detection, error) {
	if flakyCar(r.Car) {
		return core.Detection{}, errFlaky
	}
	return d.AD3.Detect(contextual(r), p)
}

func (d flakyAD3) PredictProba(r trace.Record) (float64, error) {
	return d.AD3.PredictProba(contextual(r))
}

const (
	twinCars = 24
	twinTTL  = core.DefaultSummaryTTL
)

// twins is a node under test and a reference node running the record loop,
// each on a broker of its own, on one virtual clock.
type twins struct {
	clock    atomic.Int64 // unix ns
	got, ref *Node
	feeds    [2]stream.Client
	outs     [2]*stream.Consumer
}

func (tw *twins) now() time.Time { return time.Unix(0, tw.clock.Load()) }

func newTwins(t *testing.T, det core.Detector, workers int) *twins {
	t.Helper()
	tw := &twins{}
	tw.clock.Store(time.Date(2016, 7, 4, 9, 0, 0, 0, time.UTC).UnixNano())
	var nodes [2]*Node
	for i := range nodes {
		client := stream.NewInProcClient(stream.NewBroker(stream.BrokerConfig{Now: tw.now}))
		n, err := New(Config{
			Name: "link", Road: 7, Detector: det, Client: client, Now: tw.now,
			Workers: workers, MaxBatch: 64, ShedStaleAfter: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := stream.NewConsumer(client, stream.TopicOutData, 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], tw.feeds[i], tw.outs[i] = n, client, out
	}
	tw.got, tw.ref = nodes[0], nodes[1]
	ref := tw.ref
	engine, err := microbatch.NewEngine(microbatch.Config[tracedRecord]{
		Source:  ref.inConsumer,
		Decode:  ref.decodeRecord,
		Process: func(rs []tracedRecord) error { return referenceProcessRecords(ref, rs) },
		Workers: workers, MaxBatch: 64, Now: tw.now, Metrics: ref.cfg.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.engine = engine
	return tw
}

// feed produces the same bytes under the same key to both twins.
func (tw *twins) feed(t *testing.T, topic string, car trace.CarID, payload []byte) {
	t.Helper()
	for _, c := range tw.feeds {
		if _, _, err := c.Produce(topic, stream.AutoPartition, carKey(car), payload); err != nil {
			t.Fatal(err)
		}
	}
}

// window feeds one seeded round: forwarded summaries (fresh, or already
// past the TTL; low- and high-risk), then telemetry that mixes normal and
// abnormal speeds, fresh and stale timestamps, records with no road mean
// speed (when backfill is set), traced and untraced payloads. A window is
// sometimes bigger than the node's drain bound, so the backlog saturates
// batches and flips the node degraded.
func (tw *twins) window(t *testing.T, rng *rand.Rand, backfill bool) {
	t.Helper()
	now := tw.now()
	for k := rng.Intn(4); k > 0; k-- {
		car := trace.CarID(1 + rng.Intn(twinCars))
		sum := core.PredictionSummary{
			Car: car, FromRoad: 3, Count: 1 + rng.Intn(20), MeanPNormal: 0.9,
			UpdatedMs: now.UnixMilli(),
		}
		if rng.Intn(3) == 0 {
			sum.MeanPNormal = 0.2
		}
		if rng.Intn(4) == 0 {
			sum.UpdatedMs -= (twinTTL + time.Second).Milliseconds()
		}
		payload, err := core.EncodeSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		tw.feed(t, stream.TopicCoData, car, payload)
	}
	for k := rng.Intn(130); k > 0; k-- {
		car := trace.CarID(1 + rng.Intn(twinCars))
		speed := 30 + 10*rng.Float64()
		if rng.Intn(4) == 0 {
			speed = 90
		}
		r := mkRec(car, geo.MotorwayLink, speed, 14)
		r.TimestampMs = now.UnixMilli() - int64(rng.Intn(100))
		if rng.Intn(4) == 0 {
			r.TimestampMs -= 2000 // stale: sheddable while degraded
		}
		if backfill && rng.Intn(5) == 0 {
			r.RoadMeanSpeed = 0
		}
		payload := core.AppendRecord(nil, r)
		if rng.Intn(3) == 0 {
			var tc obsv.TraceContext
			tc.Stamp(obsv.StageSent, now.Add(-time.Duration(1+rng.Intn(5))*time.Millisecond))
			payload = core.AppendRecordTraced(nil, r, tc)
		}
		tw.feed(t, stream.TopicInData, car, payload)
	}
}

// step runs one round on both twins and moves the clock on: usually a
// batch window, sometimes far enough to age every summary out.
func (tw *twins) step(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for _, n := range []*Node{tw.got, tw.ref} {
		if _, err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	d := 50 * time.Millisecond
	if rng.Intn(10) == 0 {
		d = twinTTL
	}
	tw.clock.Add(int64(d))
}

// outData reads what reached a twin's OUT-DATA since the last call: the
// placement and the bytes of each warning.
func (tw *twins) outData(t *testing.T, i int) []stream.Message {
	t.Helper()
	var out []stream.Message
	for {
		msgs, err := tw.outs[i].Poll(4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return out
		}
		for _, m := range msgs {
			out = append(out, stream.Message{Partition: m.Partition, Offset: m.Offset, Key: m.Key, Value: m.Value})
		}
	}
}

// TestProcessRecordsMatchesRecordLoop drives twin single-worker nodes, one
// on processRecords and one on the record loop it replaced, through
// seeded windows, and after every Step requires the same stats (summary
// store lookups included), metrics, per-car summaries, road profile, trace
// ring and OUT-DATA bytes.
func TestProcessRecordsMatchesRecordLoop(t *testing.T) {
	_, link, _, cad := trainedDetectors(t)
	for _, det := range []core.Detector{flakyCAD3{cad}, flakyAD3{link}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", det.Name(), seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tw := newTwins(t, det, 1)
				for round := 0; round < 80; round++ {
					tw.window(t, rng, true)
					tw.step(t, rng)
					if got, want := tw.got.Stats(), tw.ref.Stats(); got != want {
						t.Fatalf("round %d: stats\n got %+v\nwant %+v", round, got, want)
					}
					if got, want := tw.got.Registry().Snapshot(), tw.ref.Registry().Snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: metrics\n got %+v\nwant %+v", round, got, want)
					}
					for car := trace.CarID(1); car <= twinCars; car++ {
						got, gok := tw.got.builder.Summarize(car)
						want, wok := tw.ref.builder.Summarize(car)
						if gok != wok || !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d: car %d summary\n got %+v (%v)\nwant %+v (%v)", round, car, got, gok, want, wok)
						}
					}
					gm, gs, gok := tw.got.Profile().MeanStd()
					wm, ws, wok := tw.ref.Profile().MeanStd()
					if gm != wm || gs != ws || gok != wok {
						t.Fatalf("round %d: profile %v %v %v, want %v %v %v", round, gm, gs, gok, wm, ws, wok)
					}
					if got, want := tw.got.TraceRing().Recent(1<<20), tw.ref.TraceRing().Recent(1<<20); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: trace ring differs", round)
					}
					if got, want := tw.outData(t, 0), tw.outData(t, 1); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: OUT-DATA differs: %d warnings, want %d", round, len(got), len(want))
					}
				}
				requireExercised(t, tw.ref.Stats(), det)
			})
		}
	}
}

// TestProcessRecordsMatchesRecordLoopParallel runs the twins at three and
// six workers (the race detector's case). Which worker meets a record
// first is up to the scheduler, so the twins agree on what does not depend
// on it: every counter and histogram, each car's prediction count and mean,
// how many warnings each car got, the profile's mean. Records carry their
// road mean speed here: a backfilled one would read whatever samples the
// other workers had folded in by then.
func TestProcessRecordsMatchesRecordLoopParallel(t *testing.T) {
	_, _, _, cad := trainedDetectors(t)
	for _, workers := range []int{3, 6} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers)))
			tw := newTwins(t, flakyCAD3{cad}, workers)
			warned := [2]map[trace.CarID]int{{}, {}}
			for round := 0; round < 60; round++ {
				tw.window(t, rng, false)
				tw.step(t, rng)
				if got, want := tw.got.Stats(), tw.ref.Stats(); got != want {
					t.Fatalf("round %d: stats\n got %+v\nwant %+v", round, got, want)
				}
				if got, want := tw.got.Registry().Snapshot(), tw.ref.Registry().Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: metrics\n got %+v\nwant %+v", round, got, want)
				}
				for car := trace.CarID(1); car <= twinCars; car++ {
					got, gok := tw.got.builder.Summarize(car)
					want, wok := tw.ref.builder.Summarize(car)
					if gok != wok || got.Count != want.Count || math.Abs(got.MeanPNormal-want.MeanPNormal) > 1e-9 {
						t.Fatalf("round %d: car %d summary\n got %+v (%v)\nwant %+v (%v)", round, car, got, gok, want, wok)
					}
				}
				gm, _, gok := tw.got.Profile().MeanStd()
				wm, _, wok := tw.ref.Profile().MeanStd()
				if gok != wok || math.Abs(gm-wm) > 1e-9 {
					t.Fatalf("round %d: profile mean %v (%v), want %v (%v)", round, gm, gok, wm, wok)
				}
				for i := range warned {
					for _, m := range tw.outData(t, i) {
						w, err := core.DecodeWarning(m.Value)
						if err != nil {
							t.Fatal(err)
						}
						warned[i][w.Car]++
					}
				}
				if !reflect.DeepEqual(warned[0], warned[1]) {
					t.Fatalf("round %d: warnings per car %v, want %v", round, warned[0], warned[1])
				}
			}
			requireExercised(t, tw.ref.Stats(), flakyCAD3{cad})
		})
	}
}

// requireExercised fails a twin run whose windows missed a case the
// comparison is meant to cover.
func requireExercised(t *testing.T, st Stats, det core.Detector) {
	t.Helper()
	_, collab := det.(collaborativeDetector)
	for name, n := range map[string]int64{
		"warnings": st.Warnings, "prior hits": st.PriorHits, "prior misses": st.PriorMisses,
		"expired priors": st.SummaryStore.Expired, "detect errors": st.DetectErrors,
		"shed records": st.ShedStale, "degraded rounds": st.DegradedRounds,
	} {
		if n == 0 {
			t.Errorf("the run had no %s", name)
		}
	}
	if collab != (st.Fallbacks > 0) {
		t.Errorf("collaborative %v, %d fallbacks", collab, st.Fallbacks)
	}
}

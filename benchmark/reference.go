package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// warnKey identifies one warning: the car and the timestamp of the
// record that caused it.
type warnKey struct {
	car trace.CarID
	ts  int64
}

// corpus is a workload's fixed input for one seed: the corridor records
// of the scenario's held-out cars in send order, and for each the verdict
// of a reference pass of Detector.Detect(rec, prior) — the outputs the
// system under test has to reproduce.
type corpus struct {
	recs   []trace.Record
	keys   [][]byte // partition key per record ("car-<id>")
	expect []bool   // reference: this record raises a warning
	index  map[warnKey]int32
	// nMw records come first and belong to the motorway RSU; the rest
	// belong to the link RSU.
	nMw int
	// cars in handover order; priors holds the reference summary the
	// motorway RSU forwards for each.
	cars   []trace.CarID
	priors map[trace.CarID]core.PredictionSummary
	// lapSpanMs separates laps: lap n sends every record with its
	// timestamp moved by n*lapSpanMs, which keeps (car, timestamp) unique.
	lapSpanMs int64
	// expectMw and expectLink count the reference warnings per lap.
	expectMw, expectLink int
}

// A lap is the same amount of the same kind of work whatever the seed:
// corpusCars trips, corpusPerRoad records on each road, a quarter of
// them raising a warning (the scenario's held-out corridor trips run at
// 19-42% depending on its seed, and a warning costs several times a
// quiet record, so an unnormalised lap would measure the seed).
const (
	corpusCars    = 40
	corpusPerRoad = 512
	corpusWarn    = corpusPerRoad / 4
)

// buildCorpus draws a lap from the scenario's held-out corridor trips:
// the seed picks the cars and the records, then the reference pass runs
// over exactly what will be sent.
func buildCorpus(sc *experiments.Scenario, seed int64) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	byCar := map[trace.CarID]*[2][]trace.Record{} // [motorway, link]
	var order []trace.CarID                       // trip order
	sorted := append([]trace.Record(nil), sc.Test...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].TimestampMs != sorted[j].TimestampMs {
			return sorted[i].TimestampMs < sorted[j].TimestampMs
		}
		return sorted[i].Car < sorted[j].Car
	})
	for _, r := range sorted {
		road := -1
		switch r.Road {
		case experiments.CorridorMotorwayID:
			road = 0
		case experiments.CorridorLinkID:
			road = 1
		}
		if road < 0 {
			continue
		}
		if byCar[r.Car] == nil {
			byCar[r.Car] = &[2][]trace.Record{}
			order = append(order, r.Car)
		}
		byCar[r.Car][road] = append(byCar[r.Car][road], r)
	}
	var trips []trace.CarID
	for _, car := range order {
		if len(byCar[car][0]) > 0 && len(byCar[car][1]) > 0 {
			trips = append(trips, car)
		}
	}
	if len(trips) == 0 {
		return nil, fmt.Errorf("scenario has no corridor trips in its test split")
	}
	chosen := map[trace.CarID]bool{}
	for _, i := range rng.Perm(len(trips)) {
		if len(chosen) < corpusCars {
			chosen[trips[i]] = true
		}
	}
	c := &corpus{priors: map[trace.CarID]core.PredictionSummary{}}
	var mwPool, linkPool []trace.Record
	for _, car := range trips {
		if chosen[car] {
			c.cars = append(c.cars, car)
			mwPool = append(mwPool, byCar[car][0]...)
			linkPool = append(linkPool, byCar[car][1]...)
		}
	}

	// Reference, motorway RSU: standalone AD3, no prior.
	verdicts := make([]bool, len(mwPool))
	for i, r := range mwPool {
		det, err := sc.Upstream.Detect(r, nil)
		if err != nil {
			return nil, fmt.Errorf("reference detect (motorway): %w", err)
		}
		verdicts[i] = det.Abnormal()
	}
	mw, mwExpect := drawLap(mwPool, verdicts, rng)
	// The summary the motorway RSU forwards is the mean of its Naive
	// Bayes probabilities over the records it actually saw.
	builder := core.NewSummaryBuilder(int64(experiments.CorridorMotorwayID), nil)
	for _, r := range mw {
		p, err := sc.Upstream.PredictProba(r)
		if err != nil {
			return nil, fmt.Errorf("reference proba: %w", err)
		}
		builder.Observe(r.Car, p)
	}
	for _, car := range c.cars {
		if s, ok := builder.Summarize(car); ok {
			c.priors[car] = s
		}
	}
	// Reference, link RSU: CAD3 fusing the forwarded prior.
	verdicts = make([]bool, len(linkPool))
	for i, r := range linkPool {
		var prior *core.PredictionSummary
		if s, ok := c.priors[r.Car]; ok {
			prior = &s
		}
		det, err := sc.CAD3.Detect(r, prior)
		if err != nil {
			return nil, fmt.Errorf("reference detect (link): %w", err)
		}
		verdicts[i] = det.Abnormal()
	}
	link, linkExpect := drawLap(linkPool, verdicts, rng)

	c.nMw = len(mw)
	c.recs = append(append(c.recs, mw...), link...)
	c.expect = append(append(c.expect, mwExpect...), linkExpect...)
	c.index = make(map[warnKey]int32, len(c.recs))
	c.keys = make([][]byte, len(c.recs))
	carKey := map[trace.CarID][]byte{}
	minTs, maxTs := c.recs[0].TimestampMs, c.recs[0].TimestampMs
	for i, r := range c.recs {
		k := warnKey{r.Car, r.TimestampMs}
		if _, dup := c.index[k]; dup {
			return nil, fmt.Errorf("corpus: car %d has two records at %d", r.Car, r.TimestampMs)
		}
		c.index[k] = int32(i)
		if carKey[r.Car] == nil {
			carKey[r.Car] = strconv.AppendInt([]byte("car-"), int64(r.Car), 10)
		}
		c.keys[i] = carKey[r.Car]
		if r.TimestampMs < minTs {
			minTs = r.TimestampMs
		}
		if r.TimestampMs > maxTs {
			maxTs = r.TimestampMs
		}
		if c.expect[i] {
			if i < c.nMw {
				c.expectMw++
			} else {
				c.expectLink++
			}
		}
	}
	c.lapSpanMs = maxTs - minTs + 1000
	return c, nil
}

// drawLap picks corpusPerRoad records from the pool, corpusWarn of them
// with an abnormal verdict, and returns them in the pool's (time) order.
// A pool short of either kind repeats records; a repeat is sent a few
// milliseconds later so that (car, timestamp) stays unique, which no
// detector reads.
func drawLap(pool []trace.Record, abnormal []bool, rng *rand.Rand) ([]trace.Record, []bool) {
	var yes, no []int
	for i, a := range abnormal {
		if a {
			yes = append(yes, i)
		} else {
			no = append(no, i)
		}
	}
	times := make([]int, len(pool)) // how often each pool record is sent
	draw := func(from []int, n int) {
		for n > 0 && len(from) > 0 {
			for _, j := range rng.Perm(len(from)) {
				if n == 0 {
					break
				}
				times[from[j]]++
				n--
			}
		}
	}
	draw(yes, corpusWarn)
	draw(no, corpusPerRoad-corpusWarn)
	var recs []trace.Record
	var expect []bool
	for i, r := range pool {
		for k := 0; k < times[i]; k++ {
			r.TimestampMs += int64(k)
			recs = append(recs, r)
			expect = append(expect, abnormal[i])
		}
	}
	return recs, expect
}

// checker matches the warnings a closed-loop workload receives against
// the corpus, lap by lap: each expected warning exactly once, nothing
// else, and how long each took from send to receipt.
type checker struct {
	c      *corpus
	gotLap []int32 // lap in which record i's warning last arrived
	sentNs []int64 // when record i was handed to the producer this lap

	lapGot int // expected warnings received in the current lap

	received   int64
	missing    int64
	duplicate  int64
	unexpected int64
	latMs      []float64

	drop bool // lose the next expected warning (selftest injection)
}

func newChecker(c *corpus) *checker {
	k := &checker{c: c, gotLap: make([]int32, len(c.recs)), sentNs: make([]int64, len(c.recs))}
	for i := range k.gotLap {
		k.gotLap[i] = -1
	}
	return k
}

// onWarning accounts one decoded warning received at nowNs during lap.
func (k *checker) onWarning(w core.Warning, lap int32, nowNs int64) {
	idx, ok := k.c.index[warnKey{w.Car, w.SourceTsMs - int64(lap)*k.c.lapSpanMs}]
	if !ok || !k.c.expect[idx] {
		k.unexpected++
		return
	}
	if k.gotLap[idx] == lap {
		k.duplicate++
		return
	}
	if k.drop {
		k.drop = false
		return
	}
	k.gotLap[idx] = lap
	k.lapGot++
	k.received++
	k.latMs = append(k.latMs, float64(nowNs-k.sentNs[idx])/1e6)
}

// onMessages decodes a poll's worth of OUT-DATA messages, accounts each
// warning and hands the buffers back to the pool.
func (k *checker) onMessages(msgs []stream.Message, lap int32, nowNs int64) {
	for i := range msgs {
		w, err := core.DecodeWarning(msgs[i].Value)
		if err != nil {
			k.unexpected++
			continue
		}
		k.onWarning(w, lap, nowNs)
	}
	stream.RecycleMessages(msgs)
}

// endLap closes a lap that expected want warnings.
func (k *checker) endLap(want int) {
	if k.lapGot < want {
		k.missing += int64(want - k.lapGot)
	}
	k.lapGot = 0
}

// reset forgets the statistics (not the matching state): the warm-up is
// discarded.
func (k *checker) reset() {
	k.received, k.missing, k.duplicate, k.unexpected = 0, 0, 0, 0
	k.latMs = k.latMs[:0]
}

func (k *checker) failures() int64 { return k.missing + k.duplicate + k.unexpected }

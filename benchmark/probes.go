package main

import (
	"fmt"
	"time"

	"cad3/internal/core"
	"cad3/internal/flow"
	"cad3/internal/geo"
	"cad3/internal/microbatch"
	"cad3/internal/mlkit"
	"cad3/internal/netem"
	"cad3/internal/stream"
	"cad3/internal/trace"
)

// The layer probes time each layer's public calls from outside, on the
// workload's own records: batches of calls until 100,000 have run or the
// probe's share of the run is spent, the figure being the median batch.
// Slow operations (an election, a revival) fit far fewer calls into their
// share; their rows are medians of what fitted.

const probeCalls = 100_000

type prober struct {
	budget time.Duration
	out    map[string]float64
	err    error // the first error a probed call returned
}

func (pr *prober) check(err error) {
	if err != nil && pr.err == nil {
		pr.err = err
	}
}

// measure runs fn(n) — n calls of the probed operation — in batches and
// stores the median nanoseconds per call, scaled into the metric's unit.
// between, when given, runs untimed after every batch.
func (pr *prober) measure(name string, batch int, perUnit float64, fn func(n int), between ...func()) {
	run := func() float64 {
		t0 := time.Now()
		fn(batch)
		d := time.Since(t0)
		for _, f := range between {
			f()
		}
		return float64(d) / float64(batch)
	}
	run() // warm: pools, caches, lazily built state
	var per []float64
	calls := 0
	for deadline := time.Now().Add(pr.budget); calls < probeCalls && (len(per) < 3 || time.Now().Before(deadline)); calls += batch {
		per = append(per, run())
	}
	pr.out[name] = median(per) / perUnit
}

// probeFake feeds the micro-batch engine a fixed batch, so that a Step
// costs the engine's own bookkeeping and nothing else.
type probeFake struct{ msgs []stream.Message }

func (f *probeFake) Poll(max int) ([]stream.Message, error) { return f.msgs, nil }

var probeSink float64

func runProbes(res *result, p runParams) error {
	pr := &prober{budget: p.Measure * 4 / 6 / 40, out: res.Metrics}
	sc, err := buildScenario(p)
	if err != nil {
		return err
	}
	corp, err := buildCorpus(sc, p.Seed)
	if err != nil {
		return err
	}
	mw, link := corp.recs[:corp.nMw], corp.recs[corp.nMw:]
	payloads := make([][]byte, len(link))
	for i, r := range link {
		payloads[i] = core.AppendRecord(nil, r)
	}
	prior := corp.priors[corp.cars[0]]
	for _, car := range corp.cars {
		if s, ok := corp.priors[car]; ok {
			prior = s
			break
		}
	}
	key := []byte("car-1")

	// core and mlkit.
	buf := make([]byte, 0, core.RecordWireSize)
	pr.measure("core.encode_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			buf = core.AppendRecord(buf[:0], link[i%len(link)])
		}
	})
	pr.measure("core.decode_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			r, _ := core.DecodeRecord(payloads[i%len(payloads)])
			probeSink += r.Speed
		}
	})
	pr.measure("core.detect_ad3_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			d, _ := sc.Upstream.Detect(mw[i%len(mw)], nil)
			probeSink += d.PNormal
		}
	})
	pr.measure("core.detect_cad3_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			d, _ := sc.CAD3.Detect(link[i%len(link)], &prior)
			probeSink += d.PNormal
		}
	})
	pr.measure("core.detect_cad3_noprior_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			d, _ := sc.CAD3.Detect(link[i%len(link)], nil)
			probeSink += d.PNormal
		}
	})
	builder := core.NewSummaryBuilder(1, nil)
	pr.measure("core.summary_observe_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			builder.Observe(link[i%len(link)].Car, 0.5)
		}
	})
	pr.measure("core.summary_codec_ns", 256, 1, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := core.EncodeSummary(prior)
			s, _ := core.DecodeSummary(b)
			stream.PutPayload(b)
			probeSink += s.MeanPNormal
		}
	})
	warn := core.Warning{Car: 7, Road: 9, PNormal: 0.1, SourceTsMs: 1, DetectedTsMs: 2}
	pr.measure("core.warning_codec_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			buf = core.AppendWarning(buf[:0], warn)
			w, _ := core.DecodeWarning(buf)
			probeSink += w.PNormal
		}
	})
	samples, _ := sc.Labeler.MakeSamples(trace.RecordsOfType(sc.Train, geo.MotorwayLink))
	nb := mlkit.NewGaussianNB()
	tree := mlkit.NewDecisionTree(mlkit.TreeConfig{MaxDepth: 4})
	if err := nb.Fit(samples); err != nil {
		return err
	}
	if err := tree.Fit(samples); err != nil {
		return err
	}
	vecs := make([][3]float64, len(link))
	for i, r := range link {
		vecs[i] = core.FeatureVec(r)
	}
	pr.measure("mlkit.nb_proba_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := nb.PredictProba3(vecs[i%len(vecs)])
			probeSink += v
		}
	})
	pr.measure("mlkit.tree_proba_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := tree.PredictProba3(vecs[i%len(vecs)])
			probeSink += v
		}
	})

	// flow and micro-batch.
	gate := flow.NewGate(flow.GateConfig{Capacity: 1 << 30})
	pr.measure("flow.admit_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			_ = gate.Admit(flow.ClassTelemetry)
		}
		gate.Release(int64(n))
	})
	full := flow.NewGate(flow.GateConfig{Capacity: 1})
	full.Acquire(2)
	pr.measure("flow.refuse_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			if full.Admit(flow.ClassTelemetry) == nil {
				probeSink++
			}
		}
	})
	fake := &probeFake{msgs: make([]stream.Message, corridorWindow)}
	engine, err := microbatch.NewEngine(microbatch.Config[int]{
		Source:  fake,
		Decode:  func(stream.Message) (int, error) { return 0, nil },
		Process: func([]int) error { return nil },
		Workers: 1,
	})
	if err != nil {
		return err
	}
	pr.measure("microbatch.step_overhead_ns", corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorWindow {
			_, _ = engine.Step()
		}
	})

	// stream, in process.
	batch := make([]stream.BatchRecord, corridorWindow)
	results := make([]stream.BatchResult, corridorWindow)
	for i := range batch {
		batch[i] = stream.BatchRecord{Key: corp.keys[corp.nMw+i%len(link)], Value: payloads[i%len(payloads)]}
	}
	broker := stream.NewBroker(stream.BrokerConfig{MaxRetainedPerPartition: 1024})
	defer broker.Close()
	inproc := stream.NewInProcClient(broker)
	if err := inproc.CreateTopic(stream.TopicInData, corridorPartitions); err != nil {
		return err
	}
	pr.measure("stream.produce_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			_, _, err := inproc.Produce(stream.TopicInData, stream.AutoPartition, key, payloads[i%len(payloads)])
			pr.check(err)
		}
	})
	pr.measure("stream.produce_batch_ns", corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorWindow {
			pr.check(inproc.ProduceBatchInto(stream.TopicInData, stream.AutoPartition, batch, results))
		}
	})
	// A full, quiet log to read from: three partitions of 256 records.
	quiet := stream.NewBroker(stream.BrokerConfig{})
	defer quiet.Close()
	reader := stream.NewInProcClient(quiet)
	if err := reader.CreateTopic(stream.TopicInData, corridorPartitions); err != nil {
		return err
	}
	for part := int32(0); part < corridorPartitions; part++ {
		if err := reader.ProduceBatchInto(stream.TopicInData, part, batch, results); err != nil {
			return err
		}
	}
	pr.measure("stream.fetch_ns", corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorWindow {
			msgs, err := reader.Fetch(stream.TopicInData, 0, 0, corridorWindow)
			pr.check(err)
			stream.RecycleMessages(msgs)
		}
	})
	consumer, err := stream.NewConsumer(reader, stream.TopicInData, 0)
	if err != nil {
		return err
	}
	var pollBuf []stream.Message
	pr.measure("stream.poll_ns", corridorPartitions*corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorPartitions * corridorWindow {
			consumer.SeekTo(0)
			var err error
			pollBuf, err = consumer.PollInto(pollBuf[:0], corridorPartitions*corridorWindow)
			pr.check(err)
			stream.RecycleMessages(pollBuf)
		}
	})

	// stream, loopback TCP, protocol v2.
	srv, err := stream.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	quietSrv, err := stream.NewServer(quiet, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer quietSrv.Close()
	tcp, err := stream.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer tcp.Close()
	tcpQuiet, err := stream.Dial(quietSrv.Addr())
	if err != nil {
		return err
	}
	defer tcpQuiet.Close()
	pr.measure("stream.wire_rtt_us", 64, 1e3, func(n int) {
		for i := 0; i < n; i++ {
			_, err := tcp.PartitionCount(stream.TopicInData)
			pr.check(err)
		}
	})
	pr.measure("stream.wire_batch_ns", corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorWindow {
			pr.check(tcp.ProduceBatchInto(stream.TopicInData, stream.AutoPartition, batch, results))
		}
	})
	pr.measure("stream.wire_fetch_ns", corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorWindow {
			msgs, err := tcpQuiet.Fetch(stream.TopicInData, 0, 0, corridorWindow)
			pr.check(err)
			stream.RecycleMessages(msgs)
		}
	})

	// stream, replication: a three-replica in-process set.
	bcfg := stream.BrokerConfig{MaxRetainedPerPartition: corridorRetained}
	replicas := make([]stream.Replica, replReplicas)
	for i := range replicas {
		replicas[i] = stream.Replica{ID: fmt.Sprintf("r%d", i), Broker: stream.NewBroker(bcfg)}
	}
	rs, err := stream.NewReplicaSet(stream.ReplicaSetConfig{Rebuild: bcfg}, replicas...)
	if err != nil {
		return err
	}
	if err := rs.CreateTopic(stream.TopicInData, corridorPartitions); err != nil {
		return err
	}
	var keyPart int32 // the partition the probe's key hashes to
	for _, lv := range []struct {
		name string
		acks stream.AckLevel
	}{
		{"stream.repl_produce_acks0_ns", stream.AckNone},
		{"stream.repl_produce_acks1_ns", stream.AckLeader},
		{"stream.repl_produce_acksall_ns", stream.AckAll},
	} {
		pr.measure(lv.name, 1024, 1, func(n int) {
			for i := 0; i < n; i++ {
				var err error
				keyPart, _, err = rs.Produce(stream.TopicInData, stream.AutoPartition, key, payloads[i%len(payloads)], lv.acks)
				pr.check(err)
			}
		}, rs.Tick) // followers catch up outside the timed span, before the log outruns them
	}
	var commitOff int64
	if off, err := rs.CommittedOffset(stream.TopicInData, keyPart); err == nil && off > corridorWindow {
		commitOff = off - corridorWindow
	}
	pr.measure("stream.fetch_committed_ns", corridorWindow, 1, func(n int) {
		for i := 0; i < n; i += corridorWindow {
			msgs, err := rs.FetchCommitted(stream.TopicInData, keyPart, commitOff, corridorWindow)
			pr.check(err)
			stream.RecycleMessages(msgs)
		}
	})
	// Failover, harness-driven: kill the loaded partition's leader, elect with one
	// Tick, ack one record, revive, Tick the replica back into the ISR.
	var electNs, ackNs, reviveNs []float64
	for deadline, i := time.Now().Add(3*pr.budget), 0; i < 3 || (i < 64 && time.Now().Before(deadline)); i++ {
		id, _, ok := rs.Leader(stream.TopicInData, keyPart)
		if !ok || rs.Kill(id) != nil {
			break
		}
		t0 := time.Now()
		rs.Tick()
		electNs = append(electNs, float64(time.Since(t0)))
		if _, _, err := rs.Produce(stream.TopicInData, keyPart, key, payloads[0], stream.AckAll); err != nil {
			return fmt.Errorf("probe: no ack after election: %w", err)
		}
		ackNs = append(ackNs, float64(time.Since(t0)))
		t1 := time.Now()
		if _, err := rs.Revive(id); err != nil {
			return fmt.Errorf("probe: revive: %w", err)
		}
		reviveNs = append(reviveNs, float64(time.Since(t1)))
		rs.Tick()
	}
	// The replicated workload reports these from its own kills; elsewhere
	// the probe's figures stand.
	for name, v := range map[string]float64{
		"stream.election_us":             median(electNs) / 1e3,
		"stream.first_ack_after_kill_us": median(ackNs) / 1e3,
		"stream.revive_ms":               median(reviveNs) / 1e6,
	} {
		if res.Metrics[name] == 0 {
			res.Metrics[name] = v
		}
	}

	// stream, summary router.
	router := stream.NewSummaryRouter(stream.RouterConfig{})
	if err := inproc.CreateTopic(stream.TopicCoData, corridorPartitions); err != nil {
		return err
	}
	if err := router.Register("dest", inproc); err != nil {
		return err
	}
	summary, err := core.EncodeSummary(prior)
	if err != nil {
		return err
	}
	var forwardNs, flushNs []float64
	for deadline, i := time.Now().Add(2*pr.budget), 0; i < 3 || (i*1024 < probeCalls && time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		for j := 0; j < 1024; j++ {
			pr.check(router.Forward("dest", key, summary))
		}
		t1 := time.Now()
		sent, _ := router.Flush()
		if sent > 0 {
			forwardNs = append(forwardNs, float64(t1.Sub(t0))/1024)
			flushNs = append(flushNs, float64(time.Since(t1))/float64(sent))
		}
	}
	pr.out["stream.router_forward_ns"] = median(forwardNs)
	pr.out["stream.router_flush_ns"] = median(flushNs)

	// netem: the event queue at 100,000 pending events.
	sim := netem.NewSimulator(time.Unix(0, 0))
	pending := 100_000
	if p.Toy {
		pending = 1000
	}
	nop := func() {}
	for i := 0; i < pending; i++ {
		sim.After(time.Duration(i)*time.Microsecond, nop)
	}
	pr.measure("netem.sim_event_ns", 1024, 1, func(n int) {
		for i := 0; i < n; i++ {
			sim.After(time.Duration(pending)*time.Microsecond, nop)
			pr.check(sim.Step())
		}
	})
	return pr.err
}

// budgetRow is one line of the layer budget: a probe, how often a record
// pays for it, and what that adds up to.
type budgetRow struct {
	probe string
	calls float64
	scale float64 // probe unit -> ns
}

// layerBudget sums, for the closed-loop workloads, the layer probes
// weighted by calls per record and sets the sum against the measured
// wall time per record. What the probes do not explain is printed as a
// row of its own; budget.covered_frac is the explained share.
func layerBudget(res *result) {
	const warn = float64(corpusWarn) / corpusPerRoad // warnings per record
	perWindow := 1.0 / corridorWindow
	var rows []budgetRow
	switch res.Workload {
	case "corridor-saturate":
		rows = []budgetRow{
			{"core.encode_ns", 1, 1}, {"stream.wire_batch_ns", 1, 1},
			{"stream.poll_ns", 1, 1}, {"core.decode_ns", 1, 1}, {"microbatch.step_overhead_ns", 1, 1},
			{"core.detect_ad3_ns", 0.5, 1}, {"core.detect_cad3_ns", 0.5, 1},
			{"mlkit.nb_proba_ns", 1, 1}, {"core.summary_observe_ns", 1, 1},
			{"core.warning_codec_ns", warn, 1}, {"stream.produce_ns", warn, 1}, {"stream.wire_fetch_ns", warn, 1},
			// Three OUT-DATA partitions polled per window.
			{"stream.wire_rtt_us", corridorPartitions * perWindow, 1e3},
			{"rsu.handover_us", float64(corpusCars) / (2 * corpusPerRoad), 1e3},
		}
	case "corridor-remote-saturate":
		rows = []budgetRow{
			{"core.encode_ns", 1, 1}, {"stream.wire_batch_ns", 1, 1},
			{"stream.wire_fetch_ns", 1, 1}, {"core.decode_ns", 1, 1}, {"microbatch.step_overhead_ns", 1, 1},
			{"core.detect_cad3_ns", 1, 1}, {"mlkit.nb_proba_ns", 1, 1}, {"core.summary_observe_ns", 1, 1},
			{"core.warning_codec_ns", warn, 1}, {"stream.wire_fetch_ns", warn, 1},
			// One produce round trip per warning; per window, three IN-DATA
			// and three CO-DATA fetches by the node and three OUT-DATA
			// fetches by the generator.
			{"stream.wire_rtt_us", warn + 3*corridorPartitions*perWindow, 1e3},
		}
	case "replicated-failover":
		rows = []budgetRow{
			{"core.encode_ns", 1, 1}, {"stream.repl_produce_acksall_ns", 1 + warn, 1},
			{"stream.fetch_committed_ns", 1 + warn, 1}, {"core.decode_ns", 1, 1}, {"microbatch.step_overhead_ns", 1, 1},
			{"core.detect_cad3_ns", 1, 1}, {"mlkit.nb_proba_ns", 1, 1}, {"core.summary_observe_ns", 1, 1},
			{"core.warning_codec_ns", warn, 1},
		}
	default:
		return
	}
	if res.WallNsPerRecord <= 0 {
		return
	}
	var sum float64
	res.Notes = append(res.Notes, fmt.Sprintf("layer budget against %.0f ns/record measured (tracing off):", res.WallNsPerRecord))
	res.Notes = append(res.Notes, fmt.Sprintf("  %-34s %12s %12s %12s", "layer probe", "calls/record", "ns each", "ns/record"))
	for _, r := range rows {
		each := res.Metrics[r.probe] * r.scale
		sum += each * r.calls
		res.Notes = append(res.Notes, fmt.Sprintf("  %-34s %12.4f %12.1f %12.1f", r.probe, r.calls, each, each*r.calls))
	}
	res.Metrics["budget.covered_frac"] = sum / res.WallNsPerRecord
	res.Notes = append(res.Notes, fmt.Sprintf("  %-34s %12s %12s %12.1f", "sum of layers", "", "", sum))
	res.Notes = append(res.Notes, fmt.Sprintf("  %-34s %12s %12s %12.1f  (%.0f%% of the record)", "unexplained", "", "",
		res.WallNsPerRecord-sum, 100*(1-sum/res.WallNsPerRecord)))
}

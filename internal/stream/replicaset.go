package stream

// ReplicaSet is the replication controller: it owns a small cluster of
// brokers, assigns each partition a leader and an in-sync replica (ISR)
// set, ships leader log suffixes to followers, and runs epoch-fenced
// leader elections when a leader dies. It is deliberately a controller,
// not a consensus group — like Kafka's controller quorum it is the one
// place that decides leadership, and the epoch it stamps on every role
// push and replica append is what keeps deposed leaders harmless.
//
// Durability contract (the headline invariant of DESIGN.md §13): a
// record produced at AckAll is on every in-sync replica before the
// produce returns, and elections only ever promote ISR members, so
// killing a partition leader with zero warning cannot lose an acked
// record. AckLeader records survive only if the leader had replicated
// them before dying; AckNone records claim nothing.
//
// The controller serializes cluster-state changes behind one mutex.
// Produce/fetch through the ReplicaSet therefore costs a mutex more
// than the standalone broker hot path — per record for Produce, per
// batch for produceBatch, per fetch for a read, lent or cloned;
// deployments that cannot afford it keep talking to the leader broker
// directly and use the ReplicaSet only as the control plane (elections +
// replication).

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"cad3/internal/obsv"
)

// ErrNoReplica reports an unknown replica ID.
var ErrNoReplica = errors.New("stream: unknown replica")

// ErrReplicaDead rejects operations against a replica marked dead.
var ErrReplicaDead = errors.New("stream: replica is dead")

// DefaultReplicaFetch is the per-round-trip record chunk used when
// shipping a log suffix to a follower.
const DefaultReplicaFetch = 512

// Replica is one member of a ReplicaSet.
type Replica struct {
	// ID names the replica; Addr is the leader hint handed to producers
	// refused by its followers (defaults to ID — in TCP deployments set
	// it to the broker's listen address so RetryClient can redial).
	ID   string
	Addr string
	// Broker is the member's broker. Required: elections read high
	// watermarks from it directly.
	Broker *Broker
	// Link is the transport used for replica appends and role pushes.
	// Nil selects the Broker itself (in-process replication); wire
	// deployments set a *TCPClient, chaos tests a fault injector.
	Link ReplicaLink
}

// ReplicaSetConfig configures a ReplicaSet.
type ReplicaSetConfig struct {
	// ReplicaFetch is the record chunk per replication round trip.
	// Values <= 0 select DefaultReplicaFetch.
	ReplicaFetch int
	// Metrics, when set, receives election.count / election.epoch,
	// repl.catchups / repl.isr_drops / repl.push_fallbacks /
	// repl.isr_size / repl.lag.
	Metrics *obsv.Registry
	// Rebuild is the BrokerConfig of the broker a revived replica gets
	// (Revive).
	Rebuild BrokerConfig
}

// replicaState is a Replica plus its liveness mark.
type replicaState struct {
	Replica
	alive bool
}

// partState is one partition's control-plane view: who leads, at what
// epoch, and which replicas are in-sync (indexed like ReplicaSet.replicas;
// the leader's own flag is always true while it lives).
type partState struct {
	leader int
	epoch  int64
	isr    []bool
}

// replTopic is the per-topic partition table.
type replTopic struct {
	parts []partState
}

// ReplicaSet coordinates replication across a set of brokers.
type ReplicaSet struct {
	cfg ReplicaSetConfig

	mu       sync.Mutex
	replicas []*replicaState
	topics   map[string]*replTopic
	names    []string // the keys of topics, sorted (see Tick)
	rr       uint64   // nil-key AutoPartition rotor (under mu)
	readRR   uint64   // follower-read rotor (under mu)

	// Scratch reused under mu, so a warm produce allocates nothing:
	// pushRecs carries the records an AckAll produce pushes to its
	// followers as the leader log stores them, syncRecs a catch-up chunk
	// (a push that falls back to catch-up holds both), and buckets[p] the
	// positions in a batch of the records bound for partition p.
	pushRecs []ReplicaRecord
	syncRecs []ReplicaRecord
	buckets  [][]int32

	mElections, mCatchups, mISRDrops   *obsv.Counter
	mFollowerFetches, mFollowerClamped *obsv.Counter
	mPushFallbacks                     *obsv.Counter
}

// NewReplicaSet builds a controller over the given replicas. Replica IDs
// must be unique and every Broker non-nil.
func NewReplicaSet(cfg ReplicaSetConfig, replicas ...Replica) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("stream: replica set needs >= 1 replica")
	}
	if cfg.ReplicaFetch <= 0 {
		cfg.ReplicaFetch = DefaultReplicaFetch
	}
	rs := &ReplicaSet{cfg: cfg, topics: make(map[string]*replTopic)}
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if r.ID == "" || r.Broker == nil {
			return nil, fmt.Errorf("stream: replica needs an ID and a broker")
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("stream: duplicate replica id %q", r.ID)
		}
		seen[r.ID] = true
		if r.Addr == "" {
			r.Addr = r.ID
		}
		if r.Link == nil {
			r.Link = r.Broker
		}
		rs.replicas = append(rs.replicas, &replicaState{Replica: r, alive: true})
	}
	if cfg.Metrics != nil {
		rs.mElections = cfg.Metrics.Counter("election.count")
		rs.mCatchups = cfg.Metrics.Counter("repl.catchups")
		rs.mISRDrops = cfg.Metrics.Counter("repl.isr_drops")
		rs.mPushFallbacks = cfg.Metrics.Counter("repl.push_fallbacks")
		rs.mFollowerFetches = cfg.Metrics.Counter("repl.follower_fetches")
		rs.mFollowerClamped = cfg.Metrics.Counter("repl.follower_clamped")
		cfg.Metrics.RegisterGaugeFunc("repl.isr_size", rs.minISRSize)
		cfg.Metrics.RegisterGaugeFunc("repl.lag", rs.maxLag)
		cfg.Metrics.RegisterGaugeFunc("election.epoch", rs.maxEpoch)
	}
	return rs, nil
}

// CreateTopic creates the topic on every live replica and installs the
// initial role assignment: leaders spread round-robin over the members
// (partition p leads on replica p mod n), epoch 0.
func (rs *ReplicaSet) CreateTopic(name string, partitions int) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.topics[name]; ok {
		// Same idempotency contract as Broker.CreateTopic: recreating with
		// a different width errors there, identical recreate is a no-op.
		return rs.replicas[rs.firstAliveLocked()].Broker.CreateTopic(name, partitions)
	}
	for _, r := range rs.replicas {
		if !r.alive {
			continue
		}
		if err := r.Broker.CreateTopic(name, partitions); err != nil {
			return err
		}
	}
	t := &replTopic{parts: make([]partState, partitions)}
	for p := range t.parts {
		leader := p % len(rs.replicas)
		isr := make([]bool, len(rs.replicas))
		for i, r := range rs.replicas {
			isr[i] = r.alive
		}
		t.parts[p] = partState{leader: leader, epoch: 0, isr: isr}
		rs.pushRolesLocked(name, int32(p), &t.parts[p])
	}
	rs.topics[name] = t
	at := sort.SearchStrings(rs.names, name)
	rs.names = slices.Insert(rs.names, at, name)
	return nil
}

// firstAliveLocked returns the index of the first live replica, or 0.
func (rs *ReplicaSet) firstAliveLocked() int {
	for i, r := range rs.replicas {
		if r.alive {
			return i
		}
	}
	return 0
}

// pushRolesLocked tells every live replica its role for one partition.
// A follower that cannot be reached falls out of the ISR — it may hold
// a stale view of leadership, so it cannot be trusted as a promotion
// candidate until a Tick resyncs it.
func (rs *ReplicaSet) pushRolesLocked(topicName string, partition int32, ps *partState) {
	leaderAddr := rs.replicas[ps.leader].Addr
	for i, r := range rs.replicas {
		if !r.alive {
			continue
		}
		err := r.Link.SetPartitionRole(topicName, partition, i != ps.leader, ps.epoch, leaderAddr)
		if err != nil && i != ps.leader {
			rs.dropISRLocked(ps, i)
		}
	}
}

// dropISRLocked removes replica i from a partition's ISR.
func (rs *ReplicaSet) dropISRLocked(ps *partState, i int) {
	if !ps.isr[i] {
		return
	}
	ps.isr[i] = false
	if rs.mISRDrops != nil {
		rs.mISRDrops.Inc()
	}
}

// resolve maps an AutoPartition produce to a concrete partition: FNV key
// hash for keyed records (affinity), a rotor for nil keys.
func (rs *ReplicaSet) resolveLocked(t *replTopic, partition int32, key []byte) int32 {
	if partition != AutoPartition {
		return partition
	}
	n := len(t.parts)
	if n == 1 {
		return 0
	}
	if key == nil {
		rs.rr++
		return int32(rs.rr % uint64(n))
	}
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int32(h.Sum32() % uint32(n))
}

// Produce appends one record through the replication control plane at
// the given ack level. AckAll returns only after every in-sync follower
// holds the record: the leader pushes the record it just appended to
// each of them (pushLocked). A follower that cannot keep up is dropped
// from the ISR (min-ISR is the leader alone, Kafka's acks=all with
// min.insync.replicas=1) rather than failing the produce.
func (rs *ReplicaSet) Produce(topicName string, partition int32, key, value []byte, acks AckLevel) (int32, int64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t, ok := rs.topics[topicName]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	partition = rs.resolveLocked(t, partition, key)
	if partition < 0 || int(partition) >= len(t.parts) {
		return 0, 0, badPartition(topicName, partition)
	}
	ps := &t.parts[partition]
	leader := rs.replicas[ps.leader]
	if !leader.alive {
		return 0, 0, leaderless()
	}
	var stored *ReplicaRecord
	if acks == AckAll {
		rs.pushRecs = append(rs.pushRecs[:0], ReplicaRecord{})
		stored = &rs.pushRecs[0]
	}
	part, off, err := leader.Broker.produceStored(topicName, partition, key, value, stored)
	if err != nil {
		if errors.Is(err, ErrBrokerClosed) {
			// The broker died under us (Kill without the controller's
			// knowledge): mark it and refuse like a leaderless partition.
			leader.alive = false
			return 0, 0, leaderless()
		}
		return 0, 0, err
	}
	if acks == AckAll {
		rs.pushLocked(topicName, partition, ps, off)
	}
	return part, off, nil
}

// produceBatch is Produce for a batch: the records are settled in res as
// len(recs) produces in that order would settle them — the same
// partitions, offsets and refusals, the same logs on every replica
// afterwards — but each partition's share reaches its leader in one
// append and, at AckAll, each of its in-sync followers in one push.
//
// A batch interleaves keys, so its records are bucketed by partition
// first, in order (bucketLocked); a partition's records keep their order
// and partitions do not see each other's, which is all a log can tell.
func (rs *ReplicaSet) produceBatch(topicName string, partition int32, recs []BatchRecord, res []BatchResult, acks AckLevel) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t, ok := rs.topics[topicName]
	if !ok {
		err := fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
		for i := range res {
			res[i] = BatchResult{Err: err}
		}
		return
	}
	rs.bucketLocked(t, topicName, partition, recs, res)
	for p := range t.parts {
		if idx := rs.buckets[p]; len(idx) > 0 {
			rs.produceBucketLocked(topicName, int32(p), &t.parts[p], recs, idx, res, acks)
		}
	}
}

// bucketLocked sorts a batch's records by the partition they are bound
// for: buckets[p] lists, in order, the positions in recs of partition p's.
// A record that Produce would refuse before it reached the leader's log —
// partition out of range, leaderless partition, oversized value — is
// settled here instead, and the nil-key rotor turns for every record, as
// it does there. The first record to reach a partition also finds out if
// the leader's broker was closed behind the controller's back, so that
// the records after it are refused as leaderless, as a produce apiece
// would have it.
//
//cad3:noalloc
func (rs *ReplicaSet) bucketLocked(t *replTopic, topicName string, partition int32, recs []BatchRecord, res []BatchResult) {
	for len(rs.buckets) < len(t.parts) {
		rs.buckets = append(rs.buckets, nil)
	}
	for p := range rs.buckets {
		rs.buckets[p] = rs.buckets[p][:0]
	}
	for i := range recs {
		p := rs.resolveLocked(t, partition, recs[i].Key)
		if p < 0 || int(p) >= len(t.parts) {
			res[i] = BatchResult{Err: badPartition(topicName, p)}
			continue
		}
		leader := rs.replicas[t.parts[p].leader]
		switch {
		case !leader.alive: // refused below
		case len(recs[i].Value) > MaxMessageSize:
			res[i] = BatchResult{Err: ErrValueTooLarge}
			continue
		case len(rs.buckets[p]) == 0 && leader.Broker.isClosed():
			leader.alive = false
		}
		if !leader.alive {
			res[i] = BatchResult{Err: leaderless()}
			continue
		}
		rs.buckets[p] = append(rs.buckets[p], int32(i))
	}
}

// badPartition is Produce's refusal of a partition out of range, made out
// of line so that bucketLocked stays free of allocating constructs.
func badPartition(topicName string, partition int32) error {
	return fmt.Errorf("%w: %q/%d", ErrBadPartition, topicName, partition)
}

// leaderless is the refusal a partition gives while it has no live leader
// — the window between a kill and the next Tick's election: no hint (there
// is no leader yet) and the election settle estimate.
func leaderless() error { return &notLeaderError{hint: DefaultLeaderRetryHint} }

// produceBucketLocked appends one partition's bucket to its leader and,
// at AckAll, pushes what was appended to the in-sync followers: one run
// and one push, with two exceptions. Retention on the leader may split
// the bucket (see partitionLog.appendRun). And while an in-sync follower
// lags the leader, the run is one record: its push catches the follower
// up from the leader's log as a produce of that record alone would find
// it — the catch-up read returns flow credits, which the admission of the
// records behind it must see — and the rest follow as a batch. pushRecs
// holds views of the leader's log from the append to the push, which
// nothing but this controller's own produces — serialized behind mu — can
// come between.
func (rs *ReplicaSet) produceBucketLocked(topicName string, partition int32, ps *partState, recs []BatchRecord, idx []int32, res []BatchResult, acks AckLevel) {
	leader := rs.replicas[ps.leader]
	var stored *[]ReplicaRecord
	if acks == AckAll {
		stored = &rs.pushRecs
	}
	for len(idx) > 0 && leader.alive {
		run := idx
		if acks == AckAll && rs.followerLagsLocked(topicName, partition, ps) {
			run = idx[:1]
		}
		rs.pushRecs = rs.pushRecs[:0]
		n, base, err := leader.Broker.produceRun(topicName, partition, recs, run, res, stored)
		if errors.Is(err, ErrBrokerClosed) {
			leader.alive = false // closed since bucketLocked looked
			break
		}
		if err != nil {
			refuse(res, idx, err)
			return
		}
		if len(rs.pushRecs) > 0 {
			rs.pushLocked(topicName, partition, ps, base)
		}
		idx = idx[n:]
	}
	if len(idx) > 0 {
		refuse(res, idx, leaderless())
	}
}

// refuse settles the records at positions idx with the same error.
func refuse(res []BatchResult, idx []int32, err error) {
	for _, i := range idx {
		res[i] = BatchResult{Err: err}
	}
}

// followerLagsLocked reports whether some in-sync follower of a partition
// is short of the leader's high watermark, so that the next push to it
// will be answered with ErrOffsetGap.
func (rs *ReplicaSet) followerLagsLocked(topicName string, partition int32, ps *partState) bool {
	target, err := rs.replicas[ps.leader].Broker.HighWaterMark(topicName, partition)
	if err != nil {
		return true
	}
	for i, r := range rs.replicas {
		if i == ps.leader || !r.alive || !ps.isr[i] {
			continue
		}
		if hwm, err := r.Broker.HighWaterMark(topicName, partition); err != nil || hwm < target {
			return true
		}
	}
	return false
}

// pushLocked hands the records the leader just appended from offset base
// on (pushRecs, as its log stores them) to every in-sync follower,
// synchronously: one ReplicaAppend per follower per ReplicaFetch records,
// no probe and no read back from the leader log. The follower still
// decides what the append may do — it fences a stale epoch, skips an
// overlap it already holds, and answers ErrOffsetGap when it is missing
// records before base; only then does the leader fall back to the
// probe-and-catch-up sync that Tick uses. Any other failure drops the
// follower from the ISR; the produce that triggered replication still
// succeeds (the leader holds the records, and the shrunken ISR keeps the
// durability claim honest — elections only promote members that really
// have the data).
//
//cad3:noalloc
func (rs *ReplicaSet) pushLocked(topicName string, partition int32, ps *partState, base int64) {
	for recs := rs.pushRecs; len(recs) > 0; {
		chunk := recs[:min(len(recs), rs.cfg.ReplicaFetch)]
		for i, r := range rs.replicas {
			if i == ps.leader || !r.alive || !ps.isr[i] {
				continue
			}
			_, err := r.Link.ReplicaAppend(topicName, partition, ps.epoch, base, chunk)
			if errors.Is(err, ErrOffsetGap) {
				if rs.mPushFallbacks != nil {
					rs.mPushFallbacks.Inc()
				}
				_, err = rs.syncFollowerLocked(topicName, partition, ps, i)
			}
			if err != nil {
				rs.dropISRLocked(ps, i)
			}
		}
		base += int64(len(chunk))
		recs = recs[len(chunk):]
	}
	clear(rs.pushRecs) // do not pin the leader log's chunks
}

// syncFollowerLocked brings one follower up to the leader's high
// watermark, chunk by chunk, and returns the follower's final lag. The
// empty first append doubles as the HWM probe (and teaches a raced
// follower the current epoch). ErrOffsetGap from the follower means it
// fell behind the leader's retention window and needs Revive.
func (rs *ReplicaSet) syncFollowerLocked(topicName string, partition int32, ps *partState, fi int) (int64, error) {
	leader := rs.replicas[ps.leader]
	f := rs.replicas[fi]
	target, err := leader.Broker.HighWaterMark(topicName, partition)
	if err != nil {
		return 0, err
	}
	fhwm, err := f.Link.ReplicaAppend(topicName, partition, ps.epoch, 0, nil)
	if err != nil {
		return 0, err
	}
	for fhwm < target {
		msgs, err := leader.Broker.Fetch(topicName, partition, fhwm, rs.cfg.ReplicaFetch)
		if err != nil {
			return target - fhwm, err
		}
		if len(msgs) == 0 {
			break // leader truncated past target concurrently; next Tick settles it
		}
		recs := rs.syncRecs[:0]
		for i := range msgs {
			recs = append(recs, ReplicaRecord{
				Key:          msgs[i].Key,
				Value:        msgs[i].Value,
				AppendedAtNs: msgs[i].AppendedAt.UnixNano(),
			})
		}
		fhwm, err = f.Link.ReplicaAppend(topicName, partition, ps.epoch, msgs[0].Offset, recs)
		clear(recs) // the messages go back to the pool
		rs.syncRecs = recs
		RecycleMessages(msgs)
		if err != nil {
			return target - fhwm, err
		}
	}
	lag := target - fhwm
	if lag < 0 {
		lag = 0
	}
	return lag, nil
}

// Fetch reads from the partition leader.
func (rs *ReplicaSet) Fetch(topicName string, partition int32, offset int64, max int) ([]Message, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	b, err := rs.leaderLocked(topicName, partition)
	if err != nil {
		return nil, err
	}
	return b.Fetch(topicName, partition, offset, max)
}

// fetchEach is Fetch lending (Broker.FetchEach) instead of cloning. fn
// runs under mu as well as the partition lock, so besides keeping nothing
// it must not call into the replica set: a produce from inside the
// callback would wait for the lock its own read holds.
func (rs *ReplicaSet) fetchEach(topicName string, partition int32, offset int64, max int, fn func(Message)) (int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	b, err := rs.leaderLocked(topicName, partition)
	if err != nil {
		return 0, err
	}
	return b.FetchEach(topicName, partition, offset, max, fn)
}

// leaderLocked resolves the broker leading a partition, or the refusal a
// read of a leaderless one gets.
func (rs *ReplicaSet) leaderLocked(topicName string, partition int32) (*Broker, error) {
	ps, err := rs.partLocked(topicName, partition)
	if err != nil {
		return nil, err
	}
	leader := rs.replicas[ps.leader]
	if !leader.alive {
		return nil, leaderless()
	}
	return leader.Broker, nil
}

// Tick is one control-plane round: elect leaders for dead-leader
// partitions, then resync followers and recompute every ISR. Call it
// from a scheduler (chaos studies drive it in virtual time).
func (rs *ReplicaSet) Tick() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	// Topics are visited in sorted name order (names): role pushes and
	// follower syncs go through replica links that may be fault-injection
	// wrappers drawing from a seeded PRNG, so the control plane's call
	// sequence must not inherit map iteration order or deterministic
	// replays diverge run to run.
	for _, name := range rs.names {
		t := rs.topics[name]
		for p := range t.parts {
			ps := &t.parts[p]
			if !rs.replicas[ps.leader].alive {
				rs.electLocked(name, int32(p), ps)
			}
		}
	}
	for _, name := range rs.names {
		t := rs.topics[name]
		for p := range t.parts {
			ps := &t.parts[p]
			if !rs.replicas[ps.leader].alive {
				continue // still leaderless (no eligible candidate)
			}
			for i, r := range rs.replicas {
				if i == ps.leader || !r.alive {
					continue
				}
				lag, err := rs.syncFollowerLocked(name, int32(p), ps, i)
				if err != nil || lag > 0 {
					rs.dropISRLocked(ps, i)
					continue
				}
				if !ps.isr[i] {
					ps.isr[i] = true // caught back up: rejoin the ISR
				}
			}
		}
	}
}

// electLocked promotes the in-sync replica with the highest high
// watermark to leader of one partition, bumps the fencing epoch, and
// pushes the new roles. Elections are clean only: a partition whose
// every ISR member is dead stays leaderless (produces keep failing)
// rather than promote an out-of-sync replica and silently lose acked
// records.
func (rs *ReplicaSet) electLocked(topicName string, partition int32, ps *partState) {
	winner, bestHWM := -1, int64(-1)
	for i, r := range rs.replicas {
		if !r.alive || !ps.isr[i] || i == ps.leader {
			continue
		}
		hwm, err := r.Broker.HighWaterMark(topicName, partition)
		if err != nil {
			continue
		}
		if hwm > bestHWM {
			winner, bestHWM = i, hwm
		}
	}
	if winner < 0 {
		return
	}
	ps.epoch++
	ps.leader = winner
	for i, r := range rs.replicas {
		ps.isr[i] = ps.isr[i] && r.alive
	}
	rs.pushRolesLocked(topicName, partition, ps)
	if rs.mElections != nil {
		rs.mElections.Inc()
	}
}

// Kill marks a replica dead and closes its broker — the crash injection
// hook. Partitions it led are leaderless until the next Tick elects.
func (rs *ReplicaSet) Kill(id string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, _, err := rs.findLocked(id)
	if err != nil {
		return err
	}
	r.alive = false
	_ = r.Broker.Close()
	return nil
}

// Revive rebuilds a dead replica as a copy of a live peer's logs
// (cloneBroker) and rejoins it as an out-of-sync follower (a Tick syncs
// it back into the ISR). The rebuilt broker replaces the dead one; the
// new *Broker is returned so callers holding direct references can
// rewire. The replication link resets to the in-process broker — a wire
// link died with the process it pointed at.
func (rs *ReplicaSet) Revive(id string) (*Broker, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, ri, err := rs.findLocked(id)
	if err != nil {
		return nil, err
	}
	if r.alive {
		return nil, fmt.Errorf("stream: replica %q is alive", id)
	}
	src := rs.replicas[rs.firstAliveLocked()]
	if !src.alive {
		return nil, fmt.Errorf("stream: no live replica to bootstrap %q from", id)
	}
	nb, err := cloneBroker(rs.cfg.Rebuild, src.Broker)
	if err != nil {
		return nil, fmt.Errorf("stream: revive %q: %w", id, err)
	}
	for _, name := range rs.names {
		t := rs.topics[name]
		for p := range t.parts {
			ps := &t.parts[p]
			stillLeader := ps.leader == ri && !rs.replicas[ps.leader].alive
			// A partition that never elected past this replica (no ISR
			// candidate existed) takes it straight back as leader.
			if err := nb.SetPartitionRole(name, int32(p), !stillLeader, ps.epoch, rs.replicas[ps.leader].Addr); err != nil {
				return nil, fmt.Errorf("stream: revive %q: %w", id, err)
			}
			// A restored leader is trivially in sync with itself; as a
			// follower the replica stays out of the ISR until a Tick
			// verifies it caught up.
			ps.isr[ri] = stillLeader
		}
	}
	r.Broker = nb
	r.Link = nb
	r.alive = true
	if rs.mCatchups != nil {
		rs.mCatchups.Inc()
	}
	return nb, nil
}

// findLocked resolves a replica ID.
func (rs *ReplicaSet) findLocked(id string) (*replicaState, int, error) {
	for i, r := range rs.replicas {
		if r.ID == id {
			return r, i, nil
		}
	}
	return nil, -1, fmt.Errorf("%w: %q", ErrNoReplica, id)
}

// Leader reports a partition's current leader ID and epoch. A dead
// leader still shows until an election replaces it; ok is false then.
func (rs *ReplicaSet) Leader(topicName string, partition int32) (id string, epoch int64, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	t, found := rs.topics[topicName]
	if !found || partition < 0 || int(partition) >= len(t.parts) {
		return "", 0, false
	}
	ps := &t.parts[partition]
	r := rs.replicas[ps.leader]
	return r.ID, ps.epoch, r.alive
}

// BrokerFor returns a replica's current broker (rebuilt instances after
// Revive included) and whether the replica is alive.
func (rs *ReplicaSet) BrokerFor(id string) (*Broker, bool, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, _, err := rs.findLocked(id)
	if err != nil {
		return nil, false, err
	}
	return r.Broker, r.alive, nil
}

// minISRSize is the repl.isr_size gauge: the smallest ISR across all
// partitions — the cluster's weakest durability margin.
func (rs *ReplicaSet) minISRSize() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	min := int64(len(rs.replicas))
	seen := false
	for _, t := range rs.topics {
		for p := range t.parts {
			var n int64
			for _, in := range t.parts[p].isr {
				if in {
					n++
				}
			}
			if !seen || n < min {
				min, seen = n, true
			}
		}
	}
	if !seen {
		return 0
	}
	return min
}

// maxLag is the repl.lag gauge: the largest live-follower lag behind
// its partition leader, in records.
func (rs *ReplicaSet) maxLag() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var worst int64
	for name, t := range rs.topics {
		for p := range t.parts {
			ps := &t.parts[p]
			leader := rs.replicas[ps.leader]
			if !leader.alive {
				continue
			}
			target, err := leader.Broker.HighWaterMark(name, int32(p))
			if err != nil {
				continue
			}
			for i, r := range rs.replicas {
				if i == ps.leader || !r.alive {
					continue
				}
				hwm, err := r.Broker.HighWaterMark(name, int32(p))
				if err != nil {
					continue
				}
				if lag := target - hwm; lag > worst {
					worst = lag
				}
			}
		}
	}
	return worst
}

// maxEpoch is the election.epoch gauge: the highest leadership epoch in
// the cluster (how many times any partition has failed over).
func (rs *ReplicaSet) maxEpoch() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var max int64
	for _, t := range rs.topics {
		for p := range t.parts {
			if e := t.parts[p].epoch; e > max {
				max = e
			}
		}
	}
	return max
}

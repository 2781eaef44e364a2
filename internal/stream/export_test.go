package stream

// What the external tests of this package (package stream_test, which may
// import internal/chaos where this package's own tests may not) need to see
// of a replica: its logs as they are, read without reading through them (a
// fetch moves gate credits), and the controller's view of a partition.

// LogRecord is one retained record, nil and empty told apart.
type LogRecord struct {
	Key, Value []byte
	AtNs       int64
}

// LogDump is one partition log: base offset (the high watermark is Base +
// len(Records)), every retained record, and the gate's occupancy.
type LogDump struct {
	Base      int64
	Records   []LogRecord
	Occupancy int64
}

// DumpLog copies out one partition log of b.
func DumpLog(b *Broker, topicName string, partition int32) LogDump {
	l := b.topics[topicName].partitions[partition]
	l.mu.Lock()
	defer l.mu.Unlock()
	d := LogDump{Base: l.base}
	if l.gate != nil {
		d.Occupancy = l.gate.Occupancy()
	}
	for _, e := range l.index {
		k, v := l.viewLocked(e)
		d.Records = append(d.Records, LogRecord{Key: refClone(k), Value: refClone(v), AtNs: e.at})
	}
	return d
}

// PartitionState is the controller's view of one partition.
type PartitionState struct {
	Leader int
	Epoch  int64
	ISR    []bool
}

// DumpPartition copies out the controller's view of one partition.
func (rs *ReplicaSet) DumpPartition(topicName string, partition int32) PartitionState {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ps := &rs.topics[topicName].parts[partition]
	return PartitionState{Leader: ps.leader, Epoch: ps.epoch, ISR: append([]bool(nil), ps.isr...)}
}

// Package stream is a from-scratch, stdlib-only distributed event-streaming
// substrate modelled on the subset of Apache Kafka that CAD3 uses: named
// topics split into partitioned append-only logs, producers with key-hash
// partitioning, pull-based consumers tracking per-partition offsets, and a
// compact binary wire protocol over TCP. An in-process client serves
// simulations and tests; the TCP server/client pair serves the networked
// deployment (cmd/cad3-rsu, cmd/cad3-vehicles).
//
// CAD3 creates three topics per RSU (§IV-B of the paper): IN-DATA for
// vehicle telemetry, OUT-DATA for warnings, and CO-DATA for inter-RSU
// prediction summaries, each with three partitions.
package stream

import (
	"time"
)

// Topic names used by the CAD3 pipeline (paper §IV-B).
const (
	TopicInData  = "IN-DATA"
	TopicOutData = "OUT-DATA"
	TopicCoData  = "CO-DATA"
)

// DefaultPartitions is the per-topic partition count the paper configures
// "to speed up reading and writing".
const DefaultPartitions = 3

// Message is one record in a partition log.
type Message struct {
	Topic     string
	Partition int32
	Offset    int64
	Key       []byte
	Value     []byte
	// AppendedAt is stamped by the broker when the message is appended,
	// used for queuing-delay accounting.
	AppendedAt time.Time
}

// WireSize returns the approximate on-wire size of the message in bytes,
// used by bandwidth accounting: payload plus the fixed frame overhead.
func (m Message) WireSize() int {
	const frameOverhead = 29 // len+type+topic len+partition+offset+key/value lens
	return frameOverhead + len(m.Topic) + len(m.Key) + len(m.Value)
}

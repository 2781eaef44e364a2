package stream

// Payload buffer pooling. The telemetry fast path moves hundreds of small
// (~200 B) messages per simulated second. Most of them never meet this
// pool: a producer's batch and the broker's log each own their bytes in one
// piece, and a reader that decodes and moves on borrows them where they
// lie. The pool serves what is left — a reader that keeps whole messages,
// and one-off sends.
//
// Ownership contract:
//
//   - The broker holds no pooled buffers. Produce copies the payload
//     straight into a chunk its partition log owns (log.go); retention
//     reuses whole chunks, never handing record bytes back to this pool.
//   - A batch in the making holds none either: BatchProducer.Add/AddPooled
//     (and the RSU node's warning batch) encode keys and values into one
//     arena the batch owns and hand the client views of it at Flush; the
//     client has copied or written them by the time it returns.
//   - Borrowed reads: a message handed to a Consumer.PollEach /
//     Broker.FetchEach callback is lent for that call only. Its Key and
//     Value are views of the partition log (read under the partition's
//     lock) or of the fetch response frame (released after the callback),
//     and the next append, eviction or frame overwrites them. The callback
//     must copy what it keeps, must not hand them to PutPayload or
//     RecycleMessages, and must not call back into the broker or the
//     consumer. The replica set's clients lend too (ReplicatedClient and
//     the follower-read client: views of the serving replica's log, read
//     under the set's lock as well), so a callback over them must not call
//     into the replica set either — a produce from inside it would wait
//     for the lock its own read holds.
//     cad3-vet's poolsafety reports a recycle of a lent message;
//     the cad3_checks build lends a scratch copy and fills it with 0xDB
//     when the callback returns, so a view that was kept reads poison.
//   - Owned reads: messages returned by Fetch/Poll/PollInto own their Key
//     and Value buffers: pooled clones, which later appends, evictions and
//     chunk reuse never touch. A consumer that has finished with them MAY
//     hand them back with RecycleMessages; one that retains them (or does
//     nothing) simply leaves them to the garbage collector. Never recycle
//     a message whose Key/Value still alias live data.
//   - Buffers obtained from GetPayload are returned with PutPayload once
//     the payload has been handed to Send/Produce (the broker and the TCP
//     client both copy before returning).
//   - Wire frames: readFrame leases a whole frame body from the frame pool
//     and putFrame takes the whole body back — never a view past its
//     header, which would come back too short for the next frame of the
//     same size.

const (
	// pooledBufCap is the capacity of freshly minted pooled payload
	// buffers — sized for the codec's fixed 200 B telemetry packet with
	// headroom for warning/summary payloads and keys.
	pooledBufCap = 256
	// maxPooledBufCap bounds what PutPayload retains, so one oversized
	// payload does not pin a large buffer in the pool forever.
	maxPooledBufCap = 4096
	// maxPooledFrameCap bounds pooled wire-frame bodies (a fetch response
	// carries many messages per frame).
	maxPooledFrameCap = 1 << 16
)

// payloadFree is a bounded free list of payload buffers. A buffered
// channel instead of a sync.Pool because Put into a sync.Pool must box
// the slice header (`Put(&b)` escapes), costing one heap allocation per
// recycled buffer — exactly the per-message cost pooling exists to
// remove. Channel send/receive copies the header into the ring, so both
// directions are allocation-free; a full ring simply drops the buffer to
// the garbage collector.
var payloadFree = make(chan []byte, 1024)

// GetPayload returns an empty length-zero buffer from the pool, ready for
// append-style encoding (e.g. core.AppendRecord).
func GetPayload() []byte {
	select {
	case b := <-payloadFree:
		guardLease(b)
		return b[:0]
	default:
		return make([]byte, 0, pooledBufCap)
	}
}

// PutPayload returns a buffer to the pool. Nil and oversized buffers are
// dropped. The caller must not touch the buffer afterwards.
//
//cad3:noalloc
func PutPayload(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBufCap {
		return
	}
	// Admit into the guard before the send: once the header is in the
	// ring another goroutine may lease it immediately.
	guardAdmit(b)
	select {
	case payloadFree <- b[:0]:
	default: // free list full: let the GC take it
		guardRetract(b)
	}
}

// RecycleMessages returns the Key/Value buffers of polled messages to the
// pool and nils them out. Call it only when the messages' payloads have
// been fully decoded (copied into structs) and nothing aliases them.
//
//cad3:noalloc
func RecycleMessages(msgs []Message) {
	for i := range msgs {
		PutPayload(msgs[i].Key)
		PutPayload(msgs[i].Value)
		msgs[i].Key, msgs[i].Value = nil, nil
	}
}

// owning returns a lent message as one its holder owns: Key and Value
// cloned into pooled buffers, which RecycleMessages may take back.
func (m Message) owning() Message {
	m.Key, m.Value = pooledClone(m.Key), pooledClone(m.Value)
	return m
}

// pooledClone deep-copies b into a pooled buffer (nil stays nil).
func pooledClone(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append(GetPayload(), b...)
}

// frameFree recycles wire-frame bodies, same shape as payloadFree.
var frameFree = make(chan []byte, 64)

// getFrame returns an n-byte buffer for a wire frame body.
func getFrame(n int) []byte {
	select {
	case b := <-frameFree:
		guardLease(b)
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// putFrame returns a frame body to the pool.
func putFrame(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrameCap {
		return
	}
	guardAdmit(b)
	select {
	case frameFree <- b[:0]:
	default:
		guardRetract(b)
	}
}

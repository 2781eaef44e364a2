package stream

// The patterns here are all legal; any finding in this file is a false
// positive and fails the golden test.

// pollLoop is the canonical consumer: poll, recycle, re-arm with a
// zero-length reslice.
func pollLoop(msgs []Message) {
	for i := 0; i < 3; i++ {
		msgs = append(msgs, Message{})
		RecycleMessages(msgs)
		msgs = msgs[:0]
	}
}

// rangeRecycle hands each element back; the loop variable rebinds every
// iteration, so no double-recycle.
func rangeRecycle(bufs [][]byte) {
	for _, b := range bufs {
		PutPayload(b)
	}
}

// killOrReturn recycles only on the terminating path; the fallthrough
// path still owns the buffer.
func killOrReturn(flag bool, buf []byte) {
	if flag {
		PutPayload(buf)
		return
	}
	buf[0] = 1
}

// reacquire overwrites the dead variable with a fresh lease.
func reacquire() []byte {
	buf := GetPayload()
	PutPayload(buf)
	buf = GetPayload()
	return buf
}

// deferredRecycle pushes the kill into a deferred closure: it runs at
// function exit, not inline, so the body's uses are fine.
func deferredRecycle() {
	buf := GetPayload()
	defer func() { PutPayload(buf) }()
	buf = append(buf, 1)
	_ = buf
}

// headerLen may keep using len/cap after a batch recycle.
func headerLen(msgs []Message) int {
	RecycleMessages(msgs)
	return len(msgs) + cap(msgs)
}

// lentDecode copies what it keeps out of a lent message and recycles only
// buffers of its own — the borrowed-read contract.
func lentDecode(c *Consumer) [][]byte {
	var kept [][]byte
	_, _ = c.PollEach(8, func(m Message) {
		scratch := append(GetPayload(), m.Payload...)
		kept = append(kept, append([]byte(nil), scratch...))
		PutPayload(scratch)
	})
	return kept
}

// ownedAfterPoll recycles messages a poll returned (not lent): the callback
// rule does not reach a plain function's parameter.
func ownedAfterPoll(m Message) {
	PutPayload(m.Payload)
}

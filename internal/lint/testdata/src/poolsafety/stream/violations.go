package stream

// useAfterPut appends into a buffer that already went back to the pool.
func useAfterPut() {
	buf := GetPayload()
	buf = append(buf, 1)
	PutPayload(buf)
	buf = append(buf, 2) // want "use of pooled buffer buf after recycle"
	_ = buf
}

// doubleRecycle hands the same buffer back twice.
func doubleRecycle() {
	buf := GetPayload()
	PutPayload(buf)
	PutPayload(buf) // want "double recycle of buf via PutPayload"
}

// branchKill recycles on one path only; afterwards the buffer is
// maybe-free, so the read reports.
func branchKill(flag bool) {
	buf := GetPayload()
	buf = append(buf, 1)
	if flag {
		PutPayload(buf)
	}
	_ = buf[0] // want "use of pooled buffer buf"
}

// crossIteration kills at the bottom of the loop and reads at the top of
// the next iteration — only the second analysis pass can see it.
func crossIteration(n int) {
	buf := GetPayload()
	for i := 0; i < n; i++ {
		buf = append(buf, byte(i)) // want "use of pooled buffer buf"
		PutPayload(buf)
	}
}

// batchUse touches an element after the batch was recycled; the header
// length stays legal.
func batchUse(msgs []Message) {
	RecycleMessages(msgs)
	_ = len(msgs)       // ok: header still owned
	_ = msgs[0].Payload // want "use of recycled message batch msgs"
}

// doubleBatch recycles the same batch twice.
func doubleBatch(msgs []Message) {
	RecycleMessages(msgs)
	RecycleMessages(msgs) // want "double recycle of msgs via RecycleMessages"
}

// recycleLent hands a lent message's views to the pool: the log (or the
// response frame) still holds those bytes.
func recycleLent(c *Consumer) {
	_, _ = c.PollEach(8, func(m Message) {
		_ = len(m.Payload)
		PutPayload(m.Payload) // want "recycle of borrowed message m via PutPayload"
		PutPayload(m.Key)     // want "recycle of borrowed message m via PutPayload"
	})
	_, _ = c.FetchEach(0, func(lent Message) {
		RecycleMessages([]Message{lent}) // want "recycle of borrowed message lent via RecycleMessages: a FetchEach callback"
	})
}

// recycleLentNested does the same from inside another literal: the walk
// reaches lending calls wherever they are written.
func recycleLentNested(c *Consumer) {
	drain := func() {
		_, _ = c.PollEach(8, func(m Message) {
			PutPayload(m.Payload) // want "recycle of borrowed message m"
		})
	}
	drain()
}

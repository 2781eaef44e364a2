//go:build cad3_checks

package microbatch

import (
	"bytes"
	"testing"

	"cad3/internal/stream"
)

// TestRetainingDecodeReadsPoison: Decode is lent its message for the call.
// One that keeps a view of Value (or Key) instead of copying would, in a
// release build, hold bytes of the broker's log or of a response frame that
// later traffic overwrites — silently. The cad3_checks build lends a
// scratch copy and poisons it when Decode returns, so by the time Process
// sees the item the kept view is all 0xDB, while a Decode that copies is
// untouched. A source that cannot lend (the wrapped client) is poisoned the
// same way.
func TestRetainingDecodeReadsPoison(t *testing.T) {
	type item struct{ kept, copied []byte }
	for _, wrap := range []bool{false, true} {
		b := stream.NewBroker(stream.BrokerConfig{})
		if err := b.CreateTopic(stream.TopicInData, 1); err != nil {
			t.Fatal(err)
		}
		var client stream.Client = stream.NewInProcClient(b)
		if wrap {
			client = struct{ stream.Client }{client} // hides FetchEach: the consumer falls back to Fetch
		}
		c, err := stream.NewConsumer(client, stream.TopicInData, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []item
		eng, err := NewEngine(Config[item]{
			Source: c,
			Decode: func(m stream.Message) (item, error) {
				return item{kept: m.Value, copied: append([]byte(nil), m.Value...)}, nil
			},
			Process: func(items []item) error { got = append(got, items...); return nil },
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := [][]byte{[]byte("first record"), []byte("second")}
		for _, v := range want {
			if _, _, err := b.Produce(stream.TopicInData, 0, []byte("car-1"), v); err != nil {
				t.Fatal(err)
			}
		}
		if bs, err := eng.Step(); err != nil || bs.Records != len(want) {
			t.Fatalf("wrapped=%v: Step = %d records, %v", wrap, bs.Records, err)
		}
		for i, it := range got {
			if !bytes.Equal(it.copied, want[i]) {
				t.Errorf("wrapped=%v: item %d copied %q, want %q", wrap, i, it.copied, want[i])
			}
			if !bytes.Equal(it.kept, bytes.Repeat([]byte{0xDB}, len(want[i]))) {
				t.Errorf("wrapped=%v: item %d kept a view that still reads %q: a retaining Decode went unnoticed", wrap, i, it.kept)
			}
		}
		// The log itself is never poisoned: a second consumer reads it whole.
		msgs, err := b.Fetch(stream.TopicInData, 0, 0, 10)
		if err != nil || len(msgs) != len(want) || !bytes.Equal(msgs[0].Value, want[0]) || !bytes.Equal(msgs[1].Value, want[1]) {
			t.Fatalf("wrapped=%v: the broker's log was disturbed: %d messages, %v", wrap, len(msgs), err)
		}
	}
}

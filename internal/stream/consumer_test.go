package stream

import (
	"errors"
	"fmt"
	"testing"
)

func TestProducerConsumerFlow(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)

	p, err := NewProducer(client, TopicInData)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumer(client, TopicInData, 0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 50; i++ {
		if _, _, err := p.Send([]byte(fmt.Sprintf("car-%d", i%5)), []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.Sent() != 50 {
		t.Errorf("Sent = %d", p.Sent())
	}

	var got int
	for {
		msgs, err := c.Poll(16)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		got += len(msgs)
	}
	if got != 50 {
		t.Errorf("consumed %d messages, want 50", got)
	}
	nMsgs, nBytes := c.Received()
	if nMsgs != 50 || nBytes <= 0 {
		t.Errorf("Received = %d msgs, %d bytes", nMsgs, nBytes)
	}
	// Nothing more to read.
	msgs, err := c.Poll(16)
	if err != nil || len(msgs) != 0 {
		t.Errorf("idle poll = %v, %v", msgs, err)
	}
}

func TestConsumerNoDuplicatesNoLoss(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)
	p, _ := NewProducer(client, TopicInData)
	c, _ := NewConsumer(client, TopicInData, 0)

	seen := make(map[string]bool)
	var produced int
	for round := 0; round < 20; round++ {
		for i := 0; i < 7; i++ {
			v := fmt.Sprintf("r%d-m%d", round, i)
			if _, _, err := p.Send([]byte(fmt.Sprintf("k%d", i)), []byte(v)); err != nil {
				t.Fatal(err)
			}
			produced++
		}
		for {
			msgs, err := c.Poll(3)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) == 0 {
				break
			}
			for _, m := range msgs {
				v := string(m.Value)
				if seen[v] {
					t.Fatalf("duplicate delivery of %q", v)
				}
				seen[v] = true
			}
		}
	}
	if len(seen) != produced {
		t.Errorf("consumed %d unique messages, want %d", len(seen), produced)
	}
}

func TestConsumerSeekAndOffsets(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)
	for i := 0; i < 9; i++ {
		if _, _, err := client.Produce(TopicInData, 0, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := NewConsumer(client, TopicInData, 0)
	if _, err := c.Poll(100); err != nil {
		t.Fatal(err)
	}
	offs := c.Offsets()
	if offs[0] != 9 {
		t.Errorf("partition 0 offset = %d, want 9", offs[0])
	}
	c.SeekTo(0)
	msgs, err := c.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 9 {
		t.Errorf("replay after SeekTo got %d messages, want 9", len(msgs))
	}
}

func TestConsumerPartitionFailureDegradesGracefully(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)
	for part := int32(0); part < DefaultPartitions; part++ {
		if _, _, err := client.Produce(TopicInData, part, nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	b.SetPartitionDown(TopicInData, 1, true)
	c, _ := NewConsumer(client, TopicInData, 0)
	var got int
	var sawErr bool
	for i := 0; i < 5; i++ {
		msgs, err := c.Poll(10)
		got += len(msgs)
		if err != nil {
			sawErr = true
			if !errors.Is(err, ErrPartitionDown) {
				t.Fatalf("err = %v, want ErrPartitionDown", err)
			}
		}
	}
	if !sawErr {
		t.Error("expected a partition-down error")
	}
	if got != 2 {
		t.Errorf("consumed %d messages from healthy partitions, want 2", got)
	}
}

func TestNewProducerConsumerValidation(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)
	if _, err := NewProducer(nil, "t"); err == nil {
		t.Error("want error for nil client")
	}
	if _, err := NewProducer(client, ""); !errors.Is(err, ErrEmptyTopicName) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewConsumer(nil, "t", 0); err == nil {
		t.Error("want error for nil client")
	}
	if _, err := NewConsumer(client, "missing", 0); !errors.Is(err, ErrUnknownTopic) {
		t.Errorf("err = %v, want ErrUnknownTopic", err)
	}
	c, _ := NewConsumer(client, TopicInData, 0)
	if msgs, err := c.Poll(0); err != nil || msgs != nil {
		t.Errorf("Poll(0) = %v, %v", msgs, err)
	}
}

func TestAccessorSurface(t *testing.T) {
	b := newTestBroker(t)
	client := NewInProcClient(b)
	if err := client.CreateTopic(TopicInData, DefaultPartitions); err != nil {
		t.Errorf("idempotent CreateTopic through client: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("InProcClient.Close: %v", err)
	}
	p, _ := NewProducer(client, TopicInData)
	if _, _, err := p.Send([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if p.Bytes() != 6 {
		t.Errorf("Bytes = %d, want 6", p.Bytes())
	}
	c, _ := NewConsumer(client, TopicInData, 0)
	if _, err := c.Poll(10); err != nil {
		t.Fatal(err)
	}
	if b.BytesOut() <= 0 {
		t.Error("BytesOut not accounted")
	}
}

func populatedBroker(t *testing.T, msgs int) *Broker {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("u", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if _, _, err := b.Produce("t", int32(i%2), key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Produce("u", 0, nil, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConsumerSetOffsets(t *testing.T) {
	b := populatedBroker(t, 6)
	c, err := NewConsumer(NewInProcClient(b), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll(100); err != nil {
		t.Fatal(err)
	}
	saved := c.Offsets()

	c2, err := NewConsumer(NewInProcClient(b), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetOffsets(saved); err != nil {
		t.Fatal(err)
	}
	msgs, err := c2.Poll(100)
	if err != nil || len(msgs) != 0 {
		t.Errorf("restored consumer re-read %d messages, want 0 (err %v)", len(msgs), err)
	}
	if err := c2.SetOffsets([]int64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
}

package chaos

import (
	"net"
	"sync"
	"testing"
	"time"

	"cad3/internal/stream"
)

// killableListener records every connection it accepts so a test can
// close them all while the server and its broker keep running.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) kill() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// TestRetryClientHealsThroughChaosListener is the reconnect-storm case:
// a retry client rides over killed connections transparently, while the
// server and its in-memory log stay up.
func TestRetryClientHealsThroughChaosListener(t *testing.T) {
	b := stream.NewBroker(stream.BrokerConfig{})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kl := &killableListener{Listener: ln}
	srv := stream.NewServerOn(b, kl)
	t.Cleanup(func() { _ = srv.Close() })

	rc, err := stream.DialRetry(srv.Addr(), 5, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := rc.Produce("t", 0, nil, []byte("m")); err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		kl.kill()
	}
	msgs, err := rc.Fetch("t", 0, 0, 100)
	if err != nil || len(msgs) != 5 {
		t.Errorf("fetch = %d msgs, %v; want 5", len(msgs), err)
	}
}

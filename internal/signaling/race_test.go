package signaling

import (
	"net"
	"sync"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/topo"
)

// newIdleServer builds a server without starting it.
func newIdleServer(t *testing.T) *Server {
	t.Helper()
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardedServer(ctl)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestConcurrentServeAddrClose hammers the server's public surface from
// many goroutines under the race detector: Serve starting up, Addr polled
// throughout, clients connecting, and Close racing everything. The test
// passes when nothing data-races and every goroutine gets to finish —
// i.e. Close never deadlocks against in-flight handlers.
func TestConcurrentServeAddrClose(t *testing.T) {
	srv := newIdleServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = srv.Addr()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(l.Addr().String(), 2*time.Second)
			if err != nil {
				return // the racing Close may win; only data races fail the test
			}
			defer client.Close()
			_, _ = client.Report()
		}()
	}
	wg.Wait()

	// Concurrent Close calls must all succeed (idempotent shutdown).
	var closers sync.WaitGroup
	for i := 0; i < 4; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	closers.Wait()
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestServeTwiceRejected checks the listener handoff under mu: a second
// Serve must fail fast instead of racing for the listener field.
func TestServeTwiceRejected(t *testing.T) {
	srv := newIdleServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	// Wait until the first Serve has stored the listener.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := srv.Serve(l2); err == nil {
		t.Error("second Serve should be rejected")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// The badCloser shape — holding mu across wg.Wait — is a want-test of the
// locks analyzer (internal/lint/locks/testdata/l), which proves the hazard
// statically without leaking two goroutines into every -race run.

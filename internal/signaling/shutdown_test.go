package signaling

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/topo"
)

// newServingServer starts a server on an ephemeral loopback listener and
// returns it with its controller, bound address, and Serve's completion
// channel. No cleanup is registered: shutdown is the subject under test.
func newServingServer(t *testing.T) (*Server, *core.Controller, string, chan error) {
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
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	return srv, ctl, l.Addr().String(), serveDone
}

// openConns reads the registry size.
func (s *Server) openConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// activeConns counts registered connections with a request in flight.
func (s *Server) activeConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	n := 0
	for _, st := range s.conns {
		if st.active.Load() {
			n++
		}
	}
	return n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseUnblocksWithIdleClient is the regression test for the shutdown
// hang: before the connection registry existed, an idle client parked
// handle() in Decode forever and Serve's WaitGroup never drained, so the
// sequence below deadlocked. Close (and Serve's return) must now complete
// promptly while the idle connection is still open.
func TestCloseUnblocksWithIdleClient(t *testing.T) {
	srv, _, addr, serveDone := newServingServer(t)

	idle, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor(t, "the idle connection to register", func() bool { return srv.openConns() > 0 })

	closed := make(chan struct{})
	go func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an idle client attached")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after Close")
	}
	// The idle client observes the close as EOF/reset.
	_ = idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle connection still open after Close")
	}
}

// TestShutdownDrainsInFlightRequest checks the graceful path: a request
// already executing when Shutdown starts completes and its response is
// delivered, while a second, idle connection is closed immediately.
func TestShutdownDrainsInFlightRequest(t *testing.T) {
	srv, ctl, addr, serveDone := newServingServer(t)
	// Park the handler mid-request so the admit is deterministically in
	// flight when the drain starts (only the admit connection decodes a
	// request, so only it reaches the hook).
	inExecute := make(chan struct{})
	release := make(chan struct{})
	srv.testHookBeforeExecute = func() {
		close(inExecute)
		<-release
	}

	idle, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	client, err := DialConfig(ClientConfig{Addr: addr, Retry: RetryPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	type admitResult struct {
		dec Decision
		err error
	}
	admitDone := make(chan admitResult, 1)
	go func() {
		dec, err := client.Admit(videoRequest("v1", 0, 0, 1, 0))
		admitDone <- admitResult{dec, err}
	}()
	<-inExecute
	if srv.activeConns() != 1 {
		t.Fatalf("activeConns = %d, want 1", srv.activeConns())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	// The drain must close the idle connection while the in-flight request
	// keeps running; only then is the handler released to answer.
	waitFor(t, "the idle connection to be drained", func() bool { return srv.openConns() == 1 })
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Errorf("graceful shutdown errored: %v", err)
	}
	res := <-admitDone
	if res.err != nil {
		t.Fatalf("in-flight admit lost its response across the drain: %v", res.err)
	}
	if !res.dec.Admitted {
		t.Errorf("admit rejected: %s", res.dec.Reason)
	}
	if ctl.Active() != 1 {
		t.Errorf("controller has %d active connections, want 1", ctl.Active())
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestShutdownForceClosesStragglers checks the bounded-drain path: with an
// already-expired context, a connection whose request is mid-execution is
// force-closed. The server-side work still completes (committed admissions
// are never rolled back) but the client loses the response and must treat
// the admit as possibly committed.
func TestShutdownForceClosesStragglers(t *testing.T) {
	srv, ctl, addr, serveDone := newServingServer(t)
	// Park the handler between decoding the admit and executing it, so the
	// request is deterministically in flight when Shutdown's drain budget
	// expires. Releasing the hook after the force-close lets the commit
	// proceed; the response write then fails on the closed connection.
	inExecute := make(chan struct{})
	release := make(chan struct{})
	srv.testHookBeforeExecute = func() {
		close(inExecute)
		<-release
	}

	client, err := DialConfig(ClientConfig{Addr: addr, Retry: DefaultRetryPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	admitErr := make(chan error, 1)
	go func() {
		_, err := client.Admit(videoRequest("v1", 0, 0, 1, 0))
		admitErr <- err
	}()
	<-inExecute
	if srv.activeConns() != 1 {
		t.Fatalf("activeConns = %d, want 1", srv.activeConns())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the drain budget is already exhausted
	forceClosedBefore := mForceClosed.Value()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	// Shutdown force-closes the straggler, then blocks until its handler
	// exits; release the handler only once the force-close has happened.
	waitFor(t, "the straggler to be force-closed", func() bool {
		return mForceClosed.Value() > forceClosedBefore
	})
	close(release)

	select {
	case err := <-shutdownErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Shutdown = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung after force-closing the straggler")
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
	// The lost-response admit surfaces as possibly-committed: any request
	// bytes reached the wire, so a blind retry could double-allocate.
	if err := <-admitErr; !errors.Is(err, ErrPossiblyCommitted) {
		t.Errorf("interrupted admit returned %v, want ErrPossiblyCommitted", err)
	}
	// And it did commit server-side.
	if ctl.Active() != 1 {
		t.Errorf("controller has %d active connections, want the committed 1", ctl.Active())
	}
}

// TestShutdownIdempotent checks Shutdown and Close compose in any order and
// any number of times.
func TestShutdownIdempotent(t *testing.T) {
	srv, _, _, serveDone := newServingServer(t)
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("first shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close after shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestShutdownWithoutServe checks shutdown of a server that never served.
func TestShutdownWithoutServe(t *testing.T) {
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown of an idle server: %v", err)
	}
}

// TestIdleTimeoutClosesConnection checks the per-connection idle deadline:
// a silent client is disconnected, and the disconnect is not mistaken for a
// malformed request (no error response is written).
func TestIdleTimeoutClosesConnection(t *testing.T) {
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
	srv.IdleTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.DialTimeout("tcp", l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err == nil || n != 0 {
		t.Errorf("idle connection read %d bytes (%q), err %v; want a silent close", n, buf[:n], err)
	}
	waitFor(t, "the idle connection to deregister", func() bool { return srv.openConns() == 0 })
}

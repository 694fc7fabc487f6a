package main

import (
	"net"
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/signaling"
	"fafnet/internal/topo"
)

// TestDaemonWorkloadLeavesServerClean runs the daemon experiment against an
// in-process signaling server: the workload must make admission progress and
// must release everything it admitted before returning.
func TestDaemonWorkloadLeavesServerClean(t *testing.T) {
	net0, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := signaling.NewShardedServer(ctl)
	if err != nil {
		t.Fatal(err)
	}
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

	res, err := daemonWorkload{Addr: l.Addr().String(), Requests: 30, Seed: 1}.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Error("workload admitted nothing")
	}
	if res.TransportErrors != 0 || res.Ambiguous != 0 {
		t.Errorf("fault-free transport produced errors: %+v", res)
	}
	if res.Admitted+res.Rejected != 30 {
		t.Errorf("decided %d of 30 requests: %+v", res.Admitted+res.Rejected, res)
	}
	if got := ctl.Active(); got != 0 {
		t.Errorf("workload left %d connections admitted, want 0", got)
	}
	// One attempt per admit at minimum; zero means the deferred stats
	// capture missed the returned value.
	if res.Stats.Attempts < 30 {
		t.Errorf("stats report %d attempts for 30 requests", res.Stats.Attempts)
	}

	// Determinism: the same seed produces the same decision mix.
	res2, err := daemonWorkload{Addr: l.Addr().String(), Requests: 30, Seed: 1}.run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Admitted != res.Admitted || res2.Rejected != res.Rejected {
		t.Errorf("same seed, different outcomes: %+v vs %+v", res2, res)
	}
}

func TestRunDaemonValidation(t *testing.T) {
	if err := runDaemon("", 10, 1); err == nil {
		t.Error("missing -daemon-addr should fail")
	}
	if err := runDaemon("127.0.0.1:1", 0, 1); err == nil {
		t.Error("non-positive -requests should fail")
	}
}

package signaling

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fafnet/internal/core"
	"fafnet/internal/scenario"
	"fafnet/internal/topo"
)

// startServer spins up a loopback server and returns a connected client.
func startServer(t *testing.T) (*Client, *Server) {
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
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	client, err := Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv
}

func videoRequest(id string, srcRing, srcHost, dstRing, dstHost int) scenario.Request {
	return scenario.Request{
		ID:             id,
		SrcRing:        srcRing,
		SrcHost:        srcHost,
		DstRing:        dstRing,
		DstHost:        dstHost,
		DeadlineMillis: 60,
		Source:         scenario.Source{Type: "dualPeriodic", C1Kbit: 50, P1Millis: 10, C2Kbit: 10, P2Millis: 1},
	}
}

func TestAdmitReleaseRoundTrip(t *testing.T) {
	client, _ := startServer(t)

	dec, err := client.Admit(videoRequest("v1", 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	if dec.HSMillis <= 0 || dec.HRMillis <= 0 {
		t.Errorf("allocations: %v / %v ms", dec.HSMillis, dec.HRMillis)
	}
	if dec.DelayMillis <= 0 || dec.DelayMillis > dec.DeadlineMillis {
		t.Errorf("delay %v vs deadline %v", dec.DelayMillis, dec.DeadlineMillis)
	}

	report, err := client.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 1 || report[0].ID != "v1" || report[0].Src != "H0.0" {
		t.Errorf("report = %+v", report)
	}

	buffers, err := client.Buffers()
	if err != nil {
		t.Fatal(err)
	}
	if len(buffers) != 1 || buffers[0].SrcKbit <= 0 {
		t.Errorf("buffers = %+v", buffers)
	}

	ok, err := client.Release("v1")
	if err != nil || !ok {
		t.Fatalf("release: %v %v", ok, err)
	}
	ok, err = client.Release("v1")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("double release should report false")
	}
}

func TestPreviewDoesNotCommit(t *testing.T) {
	client, _ := startServer(t)
	dec, err := client.Preview(videoRequest("p1", 0, 0, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatalf("preview rejected: %s", dec.Reason)
	}
	report, err := client.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 0 {
		t.Errorf("preview committed state: %+v", report)
	}
}

func TestRejectionTravelsAsDecision(t *testing.T) {
	client, _ := startServer(t)
	req := videoRequest("tight", 0, 0, 1, 0)
	req.DeadlineMillis = 1 // impossible
	dec, err := client.Admit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted {
		t.Error("impossible deadline admitted")
	}
	if !strings.Contains(dec.Reason, "deadline") {
		t.Errorf("reason = %q", dec.Reason)
	}
}

func TestProtocolErrors(t *testing.T) {
	client, _ := startServer(t)
	// Unknown source type → protocol-level error.
	bad := videoRequest("x", 0, 0, 1, 0)
	bad.Source.Type = "warp"
	if _, err := client.Admit(bad); err == nil {
		t.Error("invalid source should error")
	}
	// Release without id.
	if _, _, err := client.roundTrip(Request{Op: OpRelease}); err == nil {
		t.Error("empty release should error")
	}
	// Unknown op.
	if _, _, err := client.roundTrip(Request{Op: "dance"}); err == nil {
		t.Error("unknown op should error")
	}
	// The connection stays usable after an error.
	if _, err := client.Admit(videoRequest("ok", 1, 0, 2, 0)); err != nil {
		t.Errorf("connection unusable after protocol error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	client1, _ := startServer(t)
	// Second client over a raw dial to the same server. The address comes
	// from the first client's connection: srv.listener is written by the
	// Serve goroutine, so reading it here would race (and Addr() may still
	// be nil if Serve has not run yet).
	addr := client1.conn.RemoteAddr().String()
	client2, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()

	errs := make(chan error, 2)
	go func() {
		_, err := client1.Admit(videoRequest("a", 0, 0, 1, 0))
		errs <- err
	}()
	go func() {
		_, err := client2.Admit(videoRequest("b", 1, 0, 2, 0))
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	report, err := client1.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 2 {
		t.Errorf("report = %d connections, want 2", len(report))
	}
}

func TestRequestValidation(t *testing.T) {
	tests := []struct {
		name    string
		req     Request
		wantErr bool
	}{
		{"admit without body", Request{Op: OpAdmit}, true},
		{"preview without body", Request{Op: OpPreview}, true},
		{"release without id", Request{Op: OpRelease}, true},
		{"report", Request{Op: OpReport}, false},
		{"buffers", Request{Op: OpBuffers}, false},
		{"unknown", Request{Op: "zap"}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.req.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewShardedServer(nil); err == nil {
		t.Error("nil controller should be rejected")
	}
}

// TestReportRowsCarryTheirOwnDelays runs report requests while admits and
// releases churn the admitted set. A report that read the delays and the
// admitted set from two snapshots would list a connection admitted between
// the two with a delay of 0; every row must instead carry its own
// connection's worst-case delay, positive and within its deadline, and once
// the churn stops each row must equal DelayReport's value for its id.
func TestReportRowsCarryTheirOwnDelays(t *testing.T) {
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
	hosts := net0.Hosts()
	const standing = 6
	churnErr := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			src := hosts[i%len(hosts)]
			dst := hosts[(i+len(hosts)/2)%len(hosts)]
			if dst.Ring == src.Ring {
				dst.Ring = (src.Ring + 1) % net0.NumRings()
			}
			spec, err := videoRequest(fmt.Sprintf("c%d", i), src.Ring, src.Index, dst.Ring, dst.Index).Spec()
			if err == nil {
				_, err = ctl.RequestAdmission(spec)
			}
			if err != nil {
				churnErr <- err
				return
			}
			if i >= standing {
				ctl.Release(fmt.Sprintf("c%d", i-standing))
			}
		}
		churnErr <- nil
	}()
	check := func(rows []ConnReport) {
		t.Helper()
		for _, r := range rows {
			if r.DelayMillis <= 0 || r.DelayMillis > r.DeadlineMillis {
				t.Errorf("row %s: delay %v ms against a %v ms deadline", r.ID, r.DelayMillis, r.DeadlineMillis)
			}
		}
	}
	for done := false; !done; {
		select {
		case err := <-churnErr:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		resp := srv.execute(Request{Op: OpReport})
		if !resp.OK {
			t.Fatalf("report: %s", resp.Error)
		}
		check(resp.Report)
	}

	resp := srv.execute(Request{Op: OpReport})
	want, err := ctl.DelayReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Report) != len(want) || len(want) == 0 {
		t.Fatalf("report lists %d connections, DelayReport %d", len(resp.Report), len(want))
	}
	check(resp.Report)
	for _, r := range resp.Report {
		if r.DelayMillis != want[r.ID]*1e3 {
			t.Errorf("row %s: delay %v ms, DelayReport %v ms", r.ID, r.DelayMillis, want[r.ID]*1e3)
		}
	}
}

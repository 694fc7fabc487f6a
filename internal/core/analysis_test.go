package core

import (
	"math"
	"testing"

	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// paperSource returns the dual-periodic workload of Section 6.
func paperSource(t testing.TB) traffic.Descriptor {
	t.Helper()
	d, err := traffic.NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defaultNet(t testing.TB) *topo.Network {
	t.Helper()
	n, err := topo.NewNetwork(topo.Default())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testConn(t testing.TB, id string, srcRing, srcHost, dstRing, dstHost int, hs, hr float64) *Connection {
	t.Helper()
	net := defaultNet(t)
	return testConnOn(t, net, id, srcRing, srcHost, dstRing, dstHost, hs, hr)
}

func testConnOn(t testing.TB, net *topo.Network, id string, srcRing, srcHost, dstRing, dstHost int, hs, hr float64) *Connection {
	t.Helper()
	src := topo.HostID{Ring: srcRing, Index: srcHost}
	dst := topo.HostID{Ring: dstRing, Index: dstHost}
	route, err := net.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return &Connection{
		ConnSpec: ConnSpec{
			ID:       id,
			Src:      src,
			Dst:      dst,
			Source:   paperSource(t),
			Deadline: 0.120,
		},
		Route: route,
		HS:    hs,
		HR:    hr,
	}
}

func TestAnalyzerSingleConnection(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testConnOn(t, net, "c1", 0, 0, 1, 0, 2e-3, 2e-3)
	delays, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	d := delays["c1"]
	if math.IsInf(d, 0) || d <= 0 {
		t.Fatalf("delay = %v, want finite positive", d)
	}
	// Two FDDI MACs bound the delay from below: each is at least 2·TTRT − H.
	ttrt := net.Config().Ring.TTRT
	if d < 2*(2*ttrt-2e-3) {
		t.Errorf("delay %v below the two-MAC protocol floor %v", d, 2*(2*ttrt-2e-3))
	}
	// And the deadline of the standard workload is satisfiable.
	if d > 0.120 {
		t.Errorf("delay %v exceeds the standard deadline", d)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testConnOn(t, net, "c1", 0, 1, 2, 3, 2e-3, 2e-3)
	bd, err := an.Breakdown([]*Connection{c}, "c1")
	if err != nil {
		t.Fatal(err)
	}
	sum := bd.SrcMAC + bd.DstMAC + bd.Constant
	for _, pd := range bd.Ports {
		sum += pd.Delay
	}
	if !units.AlmostEq(sum, bd.Total) {
		t.Errorf("breakdown parts sum to %v, Total = %v", sum, bd.Total)
	}
	if len(bd.Ports) != 3 {
		t.Errorf("route crosses %d ports, want 3", len(bd.Ports))
	}
	if bd.Constant <= 0 {
		t.Errorf("Constant = %v, want positive", bd.Constant)
	}
	// Delays match the Delays() path.
	delays, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	if !units.AlmostEq(delays["c1"], bd.Total) {
		t.Errorf("Delays = %v, Breakdown.Total = %v", delays["c1"], bd.Total)
	}
}

func TestDelayMonotoneInAllocation(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, h := range []float64{1.3e-3, 1.6e-3, 2e-3, 3e-3, 5e-3} {
		c := testConnOn(t, net, "c1", 0, 0, 1, 0, h, h)
		delays, err := an.Delays([]*Connection{c})
		if err != nil {
			t.Fatal(err)
		}
		if d := delays["c1"]; d > prev*(1+1e-9) {
			t.Errorf("H=%v: delay %v exceeds %v at smaller allocation", h, d, prev)
		} else {
			prev = d
		}
	}
}

func TestUnderAllocatedConnectionIsInfinite(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// rho = 15 Mb/s needs H >= 1.2 ms; 0.5 ms is unstable.
	c := testConnOn(t, net, "c1", 0, 0, 1, 0, 0.5e-3, 2e-3)
	delays, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(delays["c1"], 1) {
		t.Errorf("delay = %v, want +Inf for unstable allocation", delays["c1"])
	}
}

func TestUnderAllocatedReceiverIsInfinite(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testConnOn(t, net, "c1", 0, 0, 1, 0, 2e-3, 0.5e-3)
	delays, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(delays["c1"], 1) {
		t.Errorf("delay = %v, want +Inf for unstable receiver allocation", delays["c1"])
	}
}

func TestSharedPortCoupling(t *testing.T) {
	// Two connections leaving ring 0 share the id0 uplink port: each one's
	// delay with the other present must be at least its delay alone.
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := testConnOn(t, net, "a", 0, 0, 1, 0, 2e-3, 2e-3)
	b := testConnOn(t, net, "b", 0, 1, 2, 0, 2e-3, 2e-3)
	alone, err := an.Delays([]*Connection{a})
	if err != nil {
		t.Fatal(err)
	}
	both, err := an.Delays([]*Connection{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if both["a"] < alone["a"]-units.Eps {
		t.Errorf("a with competitor = %v, alone = %v: sharing decreased delay", both["a"], alone["a"])
	}
	// The shared uplink port contributes the same bound to both connections.
	bdA, err := an.Breakdown([]*Connection{a, b}, "a")
	if err != nil {
		t.Fatal(err)
	}
	bdB, err := an.Breakdown([]*Connection{a, b}, "b")
	if err != nil {
		t.Fatal(err)
	}
	if bdA.Ports[0].Port != bdB.Ports[0].Port {
		t.Fatalf("expected shared first port, got %v vs %v", bdA.Ports[0].Port, bdB.Ports[0].Port)
	}
	if !units.AlmostEq(bdA.Ports[0].Delay, bdB.Ports[0].Delay) {
		t.Errorf("shared port delays differ: %v vs %v", bdA.Ports[0].Delay, bdB.Ports[0].Delay)
	}
}

func TestOverloadedSharerPoisonsPort(t *testing.T) {
	// If one connection through a port has an unbounded envelope (unstable
	// MAC), every connection sharing that port loses its finite bound.
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := testConnOn(t, net, "good", 0, 0, 1, 0, 2e-3, 2e-3)
	bad := testConnOn(t, net, "bad", 0, 1, 1, 1, 0.5e-3, 2e-3) // unstable sender MAC
	delays, err := an.Delays([]*Connection{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(delays["bad"], 1) {
		t.Errorf("bad delay = %v, want +Inf", delays["bad"])
	}
	if !math.IsInf(delays["good"], 1) {
		t.Errorf("good delay = %v, want +Inf (shares the flooded uplink)", delays["good"])
	}
}

func TestSameRingRoute(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testConnOn(t, net, "c1", 0, 0, 0, 2, 2e-3, 0)
	delays, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	d := delays["c1"]
	if math.IsInf(d, 0) {
		t.Fatal("same-ring delay should be finite")
	}
	bd, err := an.Breakdown([]*Connection{c}, "c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.Ports) != 0 || bd.DstMAC != 0 {
		t.Errorf("same-ring breakdown should have no backbone terms: %+v", bd)
	}
	if !units.AlmostEq(bd.Total, bd.SrcMAC+bd.Constant) {
		t.Errorf("Total = %v, want SrcMAC+Constant = %v", bd.Total, bd.SrcMAC+bd.Constant)
	}
}

func TestEvaluationValidation(t *testing.T) {
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := testConnOn(t, net, "dup", 0, 0, 1, 0, 2e-3, 2e-3)
	c2 := testConnOn(t, net, "dup", 0, 1, 1, 1, 2e-3, 2e-3)
	if _, err := an.Delays([]*Connection{c1, c2}); err == nil {
		t.Error("duplicate ids should be rejected")
	}
	if _, err := an.Delays([]*Connection{nil}); err == nil {
		t.Error("nil connection should be rejected")
	}
	noHS := testConnOn(t, net, "x", 0, 0, 1, 0, 0, 2e-3)
	if _, err := an.Delays([]*Connection{noHS}); err == nil {
		t.Error("missing sender allocation should be rejected")
	}
	noHR := testConnOn(t, net, "y", 0, 0, 1, 0, 2e-3, 0)
	if _, err := an.Delays([]*Connection{noHR}); err == nil {
		t.Error("missing receiver allocation should be rejected")
	}
	if _, err := an.Breakdown([]*Connection{c1}, "ghost"); err == nil {
		t.Error("unknown breakdown id should be rejected")
	}
}

func TestMACCacheConsistency(t *testing.T) {
	// Cached and fresh evaluations must agree exactly.
	net := defaultNet(t)
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testConnOn(t, net, "c1", 0, 0, 1, 0, 2e-3, 2e-3)
	first, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	second, err := an.Delays([]*Connection{c})
	if err != nil {
		t.Fatal(err)
	}
	if first["c1"] != second["c1"] {
		t.Errorf("cached delay %v differs from fresh %v", second["c1"], first["c1"])
	}
}

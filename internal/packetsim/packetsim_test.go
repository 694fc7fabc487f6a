package packetsim

import (
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/fddi"
	"fafnet/internal/shaper"
	"fafnet/internal/tokenring"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// admitted builds a set of connections through the real CAC so allocations
// are exactly what production admission would grant.
func admitted(t *testing.T, pairs [][4]int) (topo.Config, []*core.Connection) {
	t.Helper()
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		spec := core.ConnSpec{
			ID:       "c" + string(rune('0'+i)),
			Src:      topo.HostID{Ring: p[0], Index: p[1]},
			Dst:      topo.HostID{Ring: p[2], Index: p[3]},
			Source:   src,
			Deadline: 0.070,
		}
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			t.Fatalf("setup admission %d rejected: %s", i, dec.Reason)
		}
	}
	return cfg, ctl.Connections()
}

func TestRunValidatesBounds(t *testing.T) {
	cfg, conns := admitted(t, [][4]int{
		{0, 0, 1, 0}, // ring 0 → ring 1
		{0, 1, 2, 0}, // shares the id0 uplink with c0
		{1, 0, 0, 2}, // reverse direction
	})
	res, err := Run(Config{Topology: cfg, Connections: conns, Duration: 1.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerConn) != 3 {
		t.Fatalf("PerConn = %d, want 3", len(res.PerConn))
	}
	for _, c := range res.PerConn {
		if c.FramesDelivered == 0 {
			t.Errorf("%s: no frames delivered", c.ID)
		}
		if c.Delays.Max() <= 0 {
			t.Errorf("%s: no positive delay measured", c.ID)
		}
		if !c.WithinBound() {
			t.Errorf("%s: measured worst %v exceeds analytic bound %v", c.ID, c.Delays.Max(), c.Bound)
		}
		// The bound should be meaningful (not 100x the observation).
		if c.Delays.Max() < c.Bound/100 {
			t.Logf("%s: bound %v is %.0fx the observed worst %v", c.ID, c.Bound, c.Bound/c.Delays.Max(), c.Delays.Max())
		}
	}
	if !res.AllWithinBounds() {
		t.Error("AllWithinBounds = false")
	}
}

func TestRunSameRing(t *testing.T) {
	cfg, conns := admitted(t, [][4]int{{0, 0, 0, 3}})
	res, err := Run(Config{Topology: cfg, Connections: conns, Duration: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := res.PerConn[0]
	if c.FramesDelivered == 0 {
		t.Fatal("no frames delivered on same-ring route")
	}
	if !c.WithinBound() {
		t.Errorf("same-ring worst %v exceeds bound %v", c.Delays.Max(), c.Bound)
	}
}

func TestRunRandomPhases(t *testing.T) {
	cfg, conns := admitted(t, [][4]int{
		{0, 0, 1, 0},
		{0, 1, 1, 1},
	})
	res, err := Run(Config{Topology: cfg, Connections: conns, Duration: 1.5, Seed: 3, RandomPhases: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllWithinBounds() {
		for _, c := range res.PerConn {
			t.Logf("%s: worst=%v bound=%v", c.ID, c.Delays.Max(), c.Bound)
		}
		t.Error("random-phase run violated a bound")
	}
}

// TestRunWithAsyncBackground floods the rings with non-real-time traffic;
// the timed-token protocol confines it to token earliness, so the analytic
// bounds must survive untouched.
func TestRunWithAsyncBackground(t *testing.T) {
	cfg, conns := admitted(t, [][4]int{
		{0, 0, 1, 0},
		{1, 1, 2, 1},
	})
	res, err := Run(Config{
		Topology:        cfg,
		Connections:     conns,
		Duration:        1.5,
		Seed:            4,
		AsyncBackground: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllWithinBounds() {
		for _, c := range res.PerConn {
			t.Logf("%s: worst=%v bound=%v", c.ID, c.Delays.Max(), c.Bound)
		}
		t.Error("async background load broke an analytic bound")
	}
	for _, c := range res.PerConn {
		if c.FramesDelivered == 0 {
			t.Errorf("%s starved under async background", c.ID)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg, conns := admitted(t, [][4]int{{0, 0, 1, 0}})
	run := func() Result {
		res, err := Run(Config{Topology: cfg, Connections: conns, Duration: 0.5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.PerConn[0].Delays.Max() != b.PerConn[0].Delays.Max() ||
		a.PerConn[0].FramesDelivered != b.PerConn[0].FramesDelivered {
		t.Error("same-seed runs diverged")
	}
}

func TestRunRejectsUnstableAllocations(t *testing.T) {
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	route, err := net.Route(topo.HostID{Ring: 0, Index: 0}, topo.HostID{Ring: 1, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	conn := &core.Connection{
		ConnSpec: core.ConnSpec{ID: "bad", Src: topo.HostID{Ring: 0, Index: 0}, Dst: topo.HostID{Ring: 1, Index: 0}, Source: src, Deadline: 0.1},
		Route:    route,
		HS:       0.05e-3, // unstable: cannot carry 5 Mb/s
		HR:       1e-3,
	}
	if _, err := Run(Config{Topology: cfg, Connections: []*core.Connection{conn}}); err == nil {
		t.Error("unstable allocation should be rejected before simulating")
	}
}

// TestRunCBRAndPeriodicSources exercises the CBR, one-period and leaky-bucket
// traffic generators through the full pipeline.
func TestRunCBRAndPeriodicSources(t *testing.T) {
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cbr, err := traffic.NewCBR(2e6)
	if err != nil {
		t.Fatal(err)
	}
	per, err := traffic.NewPeriodic(10e3, 0.005, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	// ρ is small enough that the bucket's generator rate matters: emitting
	// at ρ² instead floods the MAC past the admitted bound.
	lb, err := traffic.NewLeakyBucket(16e3, 20e3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []traffic.Descriptor{cbr, per, lb} {
		dec, err := ctl.RequestAdmission(core.ConnSpec{
			ID:       "g" + string(rune('0'+i)),
			Src:      topo.HostID{Ring: i, Index: 0},
			Dst:      topo.HostID{Ring: (i + 1) % 3, Index: 0},
			Source:   src,
			Deadline: 0.070,
		})
		if err != nil || !dec.Admitted {
			t.Fatalf("setup %d: %v %v", i, err, dec.Reason)
		}
	}
	res, err := Run(Config{Topology: cfg, Connections: ctl.Connections(), Duration: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.PerConn {
		if c.FramesDelivered == 0 {
			t.Errorf("%s: no frames delivered", c.ID)
		}
		if !c.WithinBound() {
			t.Errorf("%s: measured %v exceeds bound %v", c.ID, c.Delays.Max(), c.Bound)
		}
		if c.Hist == nil || c.Hist.Total() != c.Delays.N() {
			t.Errorf("%s: histogram missing or inconsistent", c.ID)
		}
	}
}

// unmodeledSource is a descriptor the packet simulator has no traffic
// generator for; the embedded leaky bucket keeps the analytic side happy.
type unmodeledSource struct{ traffic.LeakyBucket }

// TestRunUnknownSourceModel: a descriptor without a generator is a
// structural error, not a silent no-traffic run.
func TestRunUnknownSourceModel(t *testing.T) {
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	route, err := net.Route(topo.HostID{Ring: 0, Index: 0}, topo.HostID{Ring: 1, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := traffic.NewLeakyBucket(1e4, 2e6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	conn := &core.Connection{
		ConnSpec: core.ConnSpec{ID: "lb", Src: topo.HostID{Ring: 0, Index: 0}, Dst: topo.HostID{Ring: 1, Index: 0}, Source: unmodeledSource{lb}, Deadline: 0.2},
		Route:    route,
		HS:       1e-3,
		HR:       1e-3,
	}
	if _, err := Run(Config{Topology: cfg, Connections: []*core.Connection{conn}}); err == nil {
		t.Error("descriptor without a generator should be rejected")
	}
}

// TestRunHeterogeneousNetwork validates bounds end-to-end across a mixed
// network: two FDDI rings with different TTRTs plus a 16 Mb/s 802.5
// segment.
func TestRunHeterogeneousNetwork(t *testing.T) {
	cfg := topo.Default()
	tr := tokenring.RingConfig{
		BandwidthBps:   tokenring.Rate16Mbps,
		WalkTime:       0.5e-3,
		TargetRotation: 8e-3,
		HopLatency:     5e-6,
	}
	cfg.Rings = []fddi.RingConfig{cfg.Ring, fddi.DefaultRingConfig(), tr.SimConfig()}

	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(20e3, 0.010, 4e3, 0.001, 16e6)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][4]int{{0, 0, 2, 0}, {2, 1, 1, 0}} {
		dec, err := ctl.RequestAdmission(core.ConnSpec{
			ID:       "h" + string(rune('0'+i)),
			Src:      topo.HostID{Ring: pair[0], Index: pair[1]},
			Dst:      topo.HostID{Ring: pair[2], Index: pair[3]},
			Source:   src,
			Deadline: 0.120,
		})
		if err != nil || !dec.Admitted {
			t.Fatalf("setup %d: %v %v", i, err, dec.Reason)
		}
	}
	res, err := Run(Config{Topology: cfg, Connections: ctl.Connections(), Duration: 1.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.PerConn {
		if c.FramesDelivered == 0 {
			t.Errorf("%s: nothing delivered across the mixed network", c.ID)
		}
		if !c.WithinBound() {
			t.Errorf("%s: measured %v exceeds bound %v", c.ID, c.Delays.Max(), c.Bound)
		}
	}
}

// TestRunShapedConnection validates a shaped connection end to end: the
// regulator's packet-level behavior must stay within the shaped bound.
func TestRunShapedConnection(t *testing.T) {
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.ConnSpec{
		ID:       "shaped",
		Src:      topo.HostID{Ring: 0, Index: 0},
		Dst:      topo.HostID{Ring: 1, Index: 0},
		Source:   src,
		Deadline: 0.120,
		Shape:    &shaper.Spec{SigmaBits: 40e3, RhoBps: 6.5e6},
	}
	dec, err := ctl.RequestAdmission(spec)
	if err != nil || !dec.Admitted {
		t.Fatalf("shaped admission: %v %v", err, dec.Reason)
	}
	plain := core.ConnSpec{
		ID:       "plain",
		Src:      topo.HostID{Ring: 0, Index: 1},
		Dst:      topo.HostID{Ring: 2, Index: 0},
		Source:   src,
		Deadline: 0.120,
	}
	if dec, err := ctl.RequestAdmission(plain); err != nil || !dec.Admitted {
		t.Fatalf("plain admission: %v %v", err, dec.Reason)
	}

	res, err := Run(Config{Topology: cfg, Connections: ctl.Connections(), Duration: 1.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.PerConn {
		if c.FramesDelivered == 0 {
			t.Errorf("%s: no frames delivered", c.ID)
		}
		if !c.WithinBound() {
			t.Errorf("%s: measured %v exceeds bound %v", c.ID, c.Delays.Max(), c.Bound)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Topology: topo.Default()}); err == nil {
		t.Error("no connections should be rejected")
	}
	cfg, conns := admitted(t, [][4]int{{0, 0, 1, 0}})
	if _, err := Run(Config{Topology: cfg, Connections: append(conns, nil)}); err == nil {
		t.Error("nil connection should be rejected")
	}
	if _, err := Run(Config{Topology: cfg, Connections: append(conns, conns[0])}); err == nil {
		t.Error("duplicate connection should be rejected")
	}
}

// TestRunReceiverSmallerThanSender: when the CAC grants HR < HS (the
// sender-biased rule does so by construction), a reassembled source-sized
// frame no longer fits the destination station's per-rotation holding. The
// interface device must re-frame it to FrameBits(HR) — exactly what the
// analytic receiver-MAC model assumes — instead of panicking on enqueue.
func TestRunReceiverSmallerThanSender(t *testing.T) {
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{Rule: core.RuleSenderBiased, Beta: 0.1, BetaSet: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ctl.RequestAdmission(core.ConnSpec{
		ID:       "biased",
		Src:      topo.HostID{Ring: 0, Index: 0},
		Dst:      topo.HostID{Ring: 1, Index: 0},
		Source:   src,
		Deadline: 0.070,
	})
	if err != nil || !dec.Admitted {
		t.Fatalf("admission: %v %v", err, dec.Reason)
	}
	if dec.HR >= dec.HS {
		t.Fatalf("precondition HR < HS not met: HS=%v HR=%v", dec.HS, dec.HR)
	}
	res, err := Run(Config{Topology: cfg, Connections: ctl.Connections(), Duration: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := res.PerConn[0]
	if c.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
	if !c.WithinBound() {
		t.Errorf("measured %v exceeds bound %v", c.Delays.Max(), c.Bound)
	}
}

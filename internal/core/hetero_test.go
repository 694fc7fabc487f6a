package core

import (
	"math"
	"testing"

	"fafnet/internal/fddi"
	"fafnet/internal/tokenring"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// heteroTopology builds a genuinely heterogeneous network: a fast-token
// FDDI ring, a classic 8 ms-TTRT FDDI ring, and a 16 Mb/s IEEE 802.5
// token-ring segment, all behind the ATM backbone.
func heteroTopology() topo.Config {
	cfg := topo.Default()
	tr := tokenring.RingConfig{
		BandwidthBps:   tokenring.Rate16Mbps,
		WalkTime:       0.5e-3,
		TargetRotation: 8e-3,
		HopLatency:     5e-6,
	}
	cfg.Rings = []fddi.RingConfig{
		cfg.Ring,                 // ring 0: 4 ms TTRT FDDI
		fddi.DefaultRingConfig(), // ring 1: classic 8 ms TTRT FDDI
		tr.SimConfig(),           // ring 2: 802.5 segment
	}
	return cfg
}

func TestHeterogeneousRingConfigs(t *testing.T) {
	net, err := topo.NewNetwork(heteroTopology())
	if err != nil {
		t.Fatal(err)
	}
	if got := net.RingConfig(0).TTRT; !units.AlmostEq(got, 4e-3) {
		t.Errorf("ring 0 TTRT = %v", got)
	}
	if got := net.RingConfig(1).TTRT; !units.AlmostEq(got, 8e-3) {
		t.Errorf("ring 1 TTRT = %v", got)
	}
	if got := net.RingConfig(2).BandwidthBps; !units.AlmostEq(got, 16e6) {
		t.Errorf("ring 2 bandwidth = %v", got)
	}
	// Per-ring availability follows each segment's own budget.
	ctl, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, got := ctl.RingLedger(2); !units.AlmostEq(got, 7.5e-3) {
		t.Errorf("802.5 ring available = %v, want 7.5 ms", got)
	}
}

func TestHeterogeneousConfigValidation(t *testing.T) {
	cfg := heteroTopology()
	cfg.Rings = cfg.Rings[:2] // wrong length
	if err := cfg.Validate(); err == nil {
		t.Error("mismatched per-ring config count should be rejected")
	}
	cfg = heteroTopology()
	cfg.Rings[1].TTRT = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid per-ring config should be rejected")
	}
}

// TestHeterogeneousAdmission runs the full CAC across the mixed network:
// FDDI→FDDI, FDDI→802.5 and 802.5→FDDI connections.
func TestHeterogeneousAdmission(t *testing.T) {
	net, err := topo.NewNetwork(heteroTopology())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A lighter source so the 16 Mb/s segment can carry it comfortably:
	// 20 kbit per 10 ms (2 Mb/s), bursts of 4 kbit per ms.
	src, err := traffic.NewDualPeriodic(20e3, 0.010, 4e3, 0.001, 16e6)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, s, si, d, di int) ConnSpec {
		return ConnSpec{
			ID:       id,
			Src:      topo.HostID{Ring: s, Index: si},
			Dst:      topo.HostID{Ring: d, Index: di},
			Source:   src,
			Deadline: 0.120, // the slow 802.5 segment needs more headroom
		}
	}
	for _, spec := range []ConnSpec{
		mk("fddi-fddi", 0, 0, 1, 0),
		mk("fddi-tr", 0, 1, 2, 0),
		mk("tr-fddi", 2, 1, 0, 2),
	} {
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Admitted {
			t.Fatalf("%s rejected: %s", spec.ID, dec.Reason)
		}
		if d := dec.Delays[spec.ID]; math.IsInf(d, 0) || d > spec.Deadline {
			t.Fatalf("%s delay %v", spec.ID, d)
		}
	}
	// The connection ending on the 802.5 segment pays the slower medium:
	// its receiver MAC bound must exceed the FDDI→FDDI one's.
	bdTR, err := ctl.BreakdownFor("fddi-tr")
	if err != nil {
		t.Fatal(err)
	}
	bdFF, err := ctl.BreakdownFor("fddi-fddi")
	if err != nil {
		t.Fatal(err)
	}
	if bdTR.DstMAC <= bdFF.DstMAC {
		t.Errorf("802.5 receiver MAC bound %v not above FDDI's %v", bdTR.DstMAC, bdFF.DstMAC)
	}
}

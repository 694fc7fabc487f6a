package topo

import (
	"math"
	"testing"

	"fafnet/internal/atm"
	"fafnet/internal/fddi"
	"fafnet/internal/units"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default valid", func(*Config) {}, false},
		{"no rings", func(c *Config) { c.NumRings = 0 }, true},
		{"no hosts", func(c *Config) { c.HostsPerRing = 0 }, true},
		{"no switches", func(c *Config) { c.NumSwitches = 0 }, true},
		{"zero link rate", func(c *Config) { c.LinkBps = 0 }, true},
		{"negative propagation", func(c *Config) { c.LinkPropagation = -1 }, true},
		{"NaN link rate", func(c *Config) { c.LinkBps = math.NaN() }, true},
		{"infinite link rate", func(c *Config) { c.LinkBps = math.Inf(1) }, true},
		{"NaN propagation", func(c *Config) { c.LinkPropagation = math.NaN() }, true},
		{"infinite propagation", func(c *Config) { c.LinkPropagation = math.Inf(1) }, true},
		{"NaN ring TTRT", func(c *Config) { c.Ring.TTRT = math.NaN() }, true},
		{"NaN per-ring bandwidth", func(c *Config) {
			c.Rings = make([]fddi.RingConfig, c.NumRings)
			for i := range c.Rings {
				c.Rings[i] = c.Ring
			}
			c.Rings[1].BandwidthBps = math.NaN()
		}, true},
		{"NaN id delay", func(c *Config) { c.ID.FrameSwitchDelay = math.NaN() }, true},
		{"infinite switch delay", func(c *Config) { c.Switch.InputDelay = math.Inf(1) }, true},
		{"bad ring", func(c *Config) { c.Ring.TTRT = 0 }, true},
		{"bad id", func(c *Config) { c.ID.InputPortDelay = -1 }, true},
		{"bad switch", func(c *Config) { c.Switch.FabricDelay = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDefaultMatchesPaper(t *testing.T) {
	cfg := Default()
	if cfg.NumRings != 3 || cfg.HostsPerRing != 4 || cfg.NumSwitches != 3 {
		t.Errorf("default topology %d rings × %d hosts, %d switches; paper uses 3×4, 3",
			cfg.NumRings, cfg.HostsPerRing, cfg.NumSwitches)
	}
	if cfg.LinkBps != 155e6 {
		t.Errorf("link rate %v, paper uses 155 Mb/s", cfg.LinkBps)
	}
}

func TestNetworkBasics(t *testing.T) {
	n, err := NewNetwork(Default())
	if err != nil {
		t.Fatal(err)
	}
	if n.NumRings() != 3 {
		t.Errorf("NumRings = %d", n.NumRings())
	}
	if len(n.Hosts()) != 12 {
		t.Errorf("Hosts = %d, want 12", len(n.Hosts()))
	}
	if !n.ValidHost(HostID{Ring: 2, Index: 3}) {
		t.Error("H2.3 should be valid")
	}
	for _, h := range []HostID{{Ring: 3, Index: 0}, {Ring: 0, Index: 4}, {Ring: -1, Index: 0}} {
		if n.ValidHost(h) {
			t.Errorf("%v should be invalid", h)
		}
	}
	wantCap := atm.PayloadCapacity(155e6)
	if got := n.PortCapacity(); !units.AlmostEq(got, wantCap) {
		t.Errorf("PortCapacity = %v, want %v", got, wantCap)
	}
	if got := (HostID{Ring: 1, Index: 2}).String(); got != "H1.2" {
		t.Errorf("String = %q", got)
	}
}

func TestRouteCrossBackbone(t *testing.T) {
	n, err := NewNetwork(Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.Route(HostID{Ring: 0, Index: 1}, HostID{Ring: 2, Index: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.CrossesBackbone {
		t.Error("cross-ring route should cross the backbone")
	}
	want := []PortID{"id0:up", "sw0->sw2", "sw2->id2"}
	if len(r.Ports) != len(want) {
		t.Fatalf("Ports = %v, want %v", r.Ports, want)
	}
	for i := range want {
		if r.Ports[i] != want[i] {
			t.Errorf("Ports[%d] = %v, want %v", i, r.Ports[i], want[i])
		}
	}
	if r.SwitchesCrossed != 2 {
		t.Errorf("SwitchesCrossed = %d, want 2", r.SwitchesCrossed)
	}
	if r.ConstantDelay <= 0 {
		t.Errorf("ConstantDelay = %v, want positive", r.ConstantDelay)
	}
}

func TestRouteSameSwitch(t *testing.T) {
	// 2 rings but 1 switch: both interface devices hang off switch 0.
	cfg := Default()
	cfg.NumRings = 2
	cfg.NumSwitches = 1
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.Route(HostID{Ring: 0, Index: 0}, HostID{Ring: 1, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []PortID{"id0:up", "sw0->id1"}
	if len(r.Ports) != 2 || r.Ports[0] != want[0] || r.Ports[1] != want[1] {
		t.Errorf("Ports = %v, want %v", r.Ports, want)
	}
	if r.SwitchesCrossed != 1 {
		t.Errorf("SwitchesCrossed = %d, want 1", r.SwitchesCrossed)
	}
}

func TestRouteSameRing(t *testing.T) {
	n, err := NewNetwork(Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.Route(HostID{Ring: 1, Index: 0}, HostID{Ring: 1, Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.CrossesBackbone || len(r.Ports) != 0 {
		t.Errorf("same-ring route should not touch the backbone: %+v", r)
	}
	// Two hops at the ring's hop latency.
	want := 2 * Default().Ring.HopLatency
	if !units.AlmostEq(r.ConstantDelay, want) {
		t.Errorf("ConstantDelay = %v, want %v", r.ConstantDelay, want)
	}
}

func TestRouteErrors(t *testing.T) {
	n, err := NewNetwork(Default())
	if err != nil {
		t.Fatal(err)
	}
	a := HostID{Ring: 0, Index: 0}
	if _, err := n.Route(a, a); err == nil {
		t.Error("self route should fail")
	}
	if _, err := n.Route(HostID{Ring: 9, Index: 0}, a); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := n.Route(a, HostID{Ring: 0, Index: 9}); err == nil {
		t.Error("unknown destination should fail")
	}
}

func TestRouteConstantDelayComponents(t *testing.T) {
	cfg := Default()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := HostID{Ring: 0, Index: 1}
	dst := HostID{Ring: 1, Index: 2}
	r, err := n.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed: delay line S: hosts 0..3, ID at station 4; from host 1
	// to station 4 = 3 hops. Delay line R: from station 4 to host 2 = 3 hops
	// (wrap: 4→0→1→2). 3 links, 2 switches.
	want := 3*cfg.Ring.HopLatency +
		cfg.ID.SenderConstantDelay() +
		3*cfg.LinkPropagation +
		2*cfg.Switch.ConstantDelay() +
		cfg.ID.ReceiverConstantDelay() +
		3*cfg.Ring.HopLatency
	if !units.AlmostEq(r.ConstantDelay, want) {
		t.Errorf("ConstantDelay = %v, want %v", r.ConstantDelay, want)
	}
}

func TestAllPorts(t *testing.T) {
	n, err := NewNetwork(Default())
	if err != nil {
		t.Fatal(err)
	}
	// 3 uplinks + 6 directed inter-switch + 3 downlinks.
	if ports := n.AllPorts(); len(ports) != 12 {
		t.Fatalf("AllPorts = %d entries, want 12: %v", len(ports), ports)
	}
	for _, switches := range []int{3, 1, 2, 4} {
		cfg := Default()
		cfg.NumSwitches = switches
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkPortIndexes(t, n)
	}
}

// checkPortIndexes holds n's port enumeration to its routes: no port twice,
// every port of every route enumerated, at the route's dense index for it.
func checkPortIndexes(t *testing.T, n *Network) {
	t.Helper()
	ports := n.AllPorts()
	if n.NumPorts() != len(ports) {
		t.Errorf("NumPorts = %d, AllPorts lists %d", n.NumPorts(), len(ports))
	}
	seen := map[PortID]bool{}
	for _, p := range ports {
		if seen[p] {
			t.Errorf("duplicate port %v", p)
		}
		seen[p] = true
	}
	// Every port on every route must be enumerated, at its dense index.
	hosts := n.Hosts()
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			r, err := n.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.PortIndex) != len(r.Ports) {
				t.Fatalf("route %v→%v: %d port indexes for %d ports", s, d, len(r.PortIndex), len(r.Ports))
			}
			for i, p := range r.Ports {
				if !seen[p] {
					t.Errorf("route %v→%v uses unenumerated port %v", s, d, p)
				}
				if x := r.PortIndex[i]; x < 0 || x >= len(ports) || ports[x] != p {
					t.Errorf("route %v→%v: port %v has dense index %d", s, d, p, x)
				}
			}
		}
	}
}

package tokenring

import (
	"testing"

	"fafnet/internal/des"
	"fafnet/internal/fddi"
	"fafnet/internal/traffic"
)

// TestSimDelaysWithinBound validates the Section 7 extension at packet
// level: frames on a simulated 802.5 ring, competing with saturated
// neighbours, never exceed the 802.5_MAC analysis bound.
func TestSimDelaysWithinBound(t *testing.T) {
	cfg := DefaultRingConfig() // 16 Mb/s, 8 ms rotation, 0.5 ms walk
	const (
		frameBits = 8e3    // 8 kbit frames
		period    = 4e-3   // one frame per 4 ms → 2 Mb/s
		tht       = 1.5e-3 // service 24 kbit per rotation
		simTime   = 3.0
	)
	in, err := traffic.NewPeriodic(frameBits, period, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := macOn(cfg, in, tht)
	if err != nil {
		t.Fatal(err)
	}

	sim := des.NewSimulator()
	var worst float64
	delivered := 0
	ring, err := fddi.NewRingSim(sim, cfg.SimConfig(), 4, func(f fddi.DeliveredFrame) {
		if f.ConnID != "probe" {
			return
		}
		delivered++
		if d := f.Delivered - f.Enqueued; d > worst {
			worst = d
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := res.Delay + ring.PropagationDelay(0, 2)
	if err := ring.SetAllocation(0, tht); err != nil {
		t.Fatal(err)
	}
	// Competing stations holding the token for their full THTs.
	if err := ring.SetAllocation(1, 3e-3); err != nil {
		t.Fatal(err)
	}
	if err := ring.SetAllocation(3, 3e-3); err != nil {
		t.Fatal(err)
	}

	var inject func()
	inject = func() {
		if sim.Now() > simTime-period {
			return
		}
		if err := ring.Enqueue(fddi.Frame{Bits: frameBits, ConnID: "probe", Src: 0, Dst: 2}); err != nil {
			t.Errorf("enqueue: %v", err)
		}
		if _, err := sim.After(period, inject); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	var cross func()
	cross = func() {
		if sim.Now() > simTime-cfg.TargetRotation {
			return
		}
		// Exactly the competitors' sustainable load: 48 kbit per rotation
		// each (their THT serves 3 ms · 16 Mb/s = 48 kbit).
		for i := 0; i < 3; i++ {
			_ = ring.Enqueue(fddi.Frame{Bits: 16e3, ConnID: "x1", Src: 1, Dst: 0})
			_ = ring.Enqueue(fddi.Frame{Bits: 16e3, ConnID: "x3", Src: 3, Dst: 2})
		}
		if _, err := sim.After(cfg.TargetRotation, cross); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	if _, err := sim.After(0, inject); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.After(0, cross); err != nil {
		t.Fatal(err)
	}
	if err := ring.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Run(simTime + 1)

	if delivered < int(simTime/period)-2 {
		t.Fatalf("only %d probe frames delivered", delivered)
	}
	if worst <= 0 {
		t.Fatal("no delay measured")
	}
	if worst > bound {
		t.Errorf("measured worst 802.5 delay %v exceeds analytic bound %v", worst, bound)
	}
}

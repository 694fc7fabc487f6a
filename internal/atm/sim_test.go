package atm

import (
	"testing"

	"fafnet/internal/des"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

func TestPortSimValidation(t *testing.T) {
	sim := des.NewSimulator()
	sink := func(Cell) {}
	if _, err := NewPortSim(nil, 1e6, 0, sink); err == nil {
		t.Error("nil simulator should be rejected")
	}
	if _, err := NewPortSim(sim, 0, 0, sink); err == nil {
		t.Error("zero rate should be rejected")
	}
	if _, err := NewPortSim(sim, 1e6, -1, sink); err == nil {
		t.Error("negative propagation should be rejected")
	}
	if _, err := NewPortSim(sim, 1e6, 0, nil); err == nil {
		t.Error("nil sink should be rejected")
	}
}

func TestPortSimSerialTransmission(t *testing.T) {
	sim := des.NewSimulator()
	var arrivals []float64
	port, err := NewPortSim(sim, 155e6, 0, func(c Cell) {
		arrivals = append(arrivals, sim.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		port.Submit(Cell{ConnID: "c", CellSeq: i})
	}
	sim.Run(1)
	if len(arrivals) != 5 {
		t.Fatalf("delivered %d cells, want 5", len(arrivals))
	}
	ct := CellTime(155e6)
	for i, at := range arrivals {
		want := float64(i+1) * ct
		if !units.WithinRel(at, want, 1e-9) {
			t.Errorf("cell %d arrived at %v, want %v", i, at, want)
		}
	}
	if port.Sent() != 5 {
		t.Errorf("Sent = %d, want 5", port.Sent())
	}
	// The first cell goes on the wire immediately, so four cells queue.
	if port.MaxQueueLen() != 4 {
		t.Errorf("MaxQueueLen = %d, want 4", port.MaxQueueLen())
	}
}

func TestPortSimPropagation(t *testing.T) {
	sim := des.NewSimulator()
	var at float64
	port, err := NewPortSim(sim, 155e6, 1e-4, func(Cell) { at = sim.Now() })
	if err != nil {
		t.Fatal(err)
	}
	port.Submit(Cell{})
	sim.Run(1)
	want := CellTime(155e6) + 1e-4
	if !units.WithinRel(at, want, 1e-9) {
		t.Errorf("arrival at %v, want %v", at, want)
	}
}

func TestSwitchSimRouting(t *testing.T) {
	sim := des.NewSimulator()
	var gotA, gotB []Cell
	portA, err := NewPortSim(sim, 155e6, 0, func(c Cell) { gotA = append(gotA, c) })
	if err != nil {
		t.Fatal(err)
	}
	portB, err := NewPortSim(sim, 155e6, 0, func(c Cell) { gotB = append(gotB, c) })
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitchSim(sim, DefaultSwitchParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Route("a", portA); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route("a", portA); err == nil {
		t.Error("duplicate route should fail")
	}
	if err := sw.Route("b", portB); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route("c", nil); err == nil {
		t.Error("nil port should be rejected")
	}
	sw.Receive(Cell{ConnID: "a", CellSeq: 1})
	sw.Receive(Cell{ConnID: "b", CellSeq: 2})
	sw.Receive(Cell{ConnID: "a", CellSeq: 3})
	sim.Run(1)
	if len(gotA) != 2 || len(gotB) != 1 {
		t.Fatalf("routed %d/%d cells, want 2/1", len(gotA), len(gotB))
	}
	if !sw.Unroute("a") {
		t.Error("Unroute(a) should succeed")
	}
	if sw.Unroute("a") {
		t.Error("double Unroute should report false")
	}
}

func TestSwitchSimUnroutedPanics(t *testing.T) {
	sim := des.NewSimulator()
	sw, err := NewSwitchSim(sim, DefaultSwitchParams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("unrouted cell should panic")
		}
	}()
	sw.Receive(Cell{ConnID: "ghost"})
}

// TestPortSimDelayWithinMuxBound validates the multiplexer analysis against
// the cell-level simulator: two bursty connections share a port; every
// per-cell queueing delay must stay below the analytic worst case.
func TestPortSimDelayWithinMuxBound(t *testing.T) {
	const (
		wire    = 155e6
		simTime = 1.0
	)
	sim := des.NewSimulator()
	var worst float64
	port, err := NewPortSim(sim, wire, 0, func(c Cell) {
		if d := sim.Now() - c.Created; d > worst {
			worst = d
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each source: burst of 20 cells back-to-back every 2 ms.
	const cellsPerBurst = 20
	const burstPeriod = 2e-3
	inject := func(connID string, offset float64) {
		var burst func()
		seq := 0
		burst = func() {
			if sim.Now() > simTime {
				return
			}
			for i := 0; i < cellsPerBurst; i++ {
				port.Submit(Cell{ConnID: connID, CellSeq: seq, PayloadBits: CellPayloadBits, Created: sim.Now()})
				seq++
			}
			if _, err := sim.After(burstPeriod, burst); err != nil {
				t.Errorf("schedule: %v", err)
			}
		}
		if _, err := sim.After(offset, burst); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	inject("a", 0)
	inject("b", 0) // worst case: bursts aligned

	// Analysis with matching envelopes in payload bits at payload capacity.
	burstBits := float64(cellsPerBurst * CellPayloadBits)
	env, err := traffic.NewPeriodic(burstBits, burstPeriod, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeMux([]traffic.Descriptor{env, env}, MuxParams{CapacityBps: PayloadCapacity(wire)}, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bound := res.Delay + CellTime(wire) // bound covers queueing; add own transmission

	sim.Run(simTime + 0.1)
	if worst <= 0 {
		t.Fatal("no delay measured")
	}
	if worst > bound*(1+1e-9) {
		t.Errorf("measured worst cell delay %v exceeds bound %v", worst, bound)
	}
}

// TestPortSwitchPathAllocs: each stage of the cell path is one handler
// bound at construction draining a FIFO, so once the rings and the calendar
// have grown, a cell crosses port → switch → port without allocating.
func TestPortSwitchPathAllocs(t *testing.T) {
	sim := des.NewSimulator()
	delivered := 0
	down, err := NewPortSim(sim, 155e6, 5e-6, func(Cell) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitchSim(sim, SwitchParams{InputDelay: 2e-6, FabricDelay: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Route("c", down); err != nil {
		t.Fatal(err)
	}
	up, err := NewPortSim(sim, 155e6, 5e-6, sw.Receive)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 32
	burst := func() {
		for i := 0; i < cells; i++ {
			up.Submit(Cell{ConnID: "c", CellSeq: i, LastOfFrame: i == cells-1, PayloadBits: CellPayloadBits})
		}
		sim.Run(sim.Now() + 1)
	}
	burst() // grow the FIFOs and the calendar
	if avg := testing.AllocsPerRun(50, burst) / cells; avg != 0 {
		t.Errorf("steady-state port → switch → port: %v allocs per cell, want 0", avg)
	}
	if want := cells * 52; delivered != want {
		t.Errorf("delivered %d cells, want %d", delivered, want)
	}
}

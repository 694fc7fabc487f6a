package traffic

import (
	"math"
	"slices"
	"testing"
)

// The port walk's search window, as the FIFO port analysis runs it, but
// ending at 128 ms so that a member set that never drains costs the fuzzer
// a few doublings rather than eight seconds of lowering.
const (
	walkFrom = 16e-3
	walkTo   = 0.128
)

// checkPortWalk holds w.Backlog(flats, rate, …) to Backlog over the whole
// sum, built on a workspace of its own: busy period, backlog and verdict bit
// for bit.
func checkPortWalk(t *testing.T, w *Workspace, flats []*Flat, rate float64) {
	t.Helper()
	var ref Workspace
	wantBusy, wantBacklog, wantOK := Backlog(ref.Sum(flats), rate, walkFrom, walkTo)
	busy, backlog, ok := w.Backlog(flats, rate, walkFrom, walkTo)
	if ok != wantOK || math.Float64bits(busy) != math.Float64bits(wantBusy) || math.Float64bits(backlog) != math.Float64bits(wantBacklog) {
		t.Fatalf("%d members at %v bps: the lazy walk reads (%v, %v, %v), the whole sum (%v, %v, %v)",
			len(flats), rate, busy, backlog, ok, wantBusy, wantBacklog, wantOK)
	}
}

// FuzzPortWalk: the port's lazy walk, Workspace.Backlog, answers as
// Backlog(ws.Sum(flats), …) does, bit for bit, for 1–8 fuzzed member chains
// (FuzzWorkspaceSum's generator) lowered over the analyzer's window and a
// fuzzed service rate from half to five times the members' summed long-term
// rate — so that the busy period ends early, late, past the window or never.
// One workspace takes the member set and then a rotation of a subset of it,
// and every member reads as it did before.
func FuzzPortWalk(f *testing.F) {
	const horizon = 0.025
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &sumFuzzInput{b: data}
		_, flats := r.members(horizon)
		if len(flats) == 0 {
			return
		}
		var rho float64
		for _, fl := range flats {
			rho += fl.LongTermRate()
		}
		rate := max(rho, 1e5) * (0.5 + 4.5*r.frac())
		rot, keep := int(r.byte())%len(flats), 1+int(r.byte())%len(flats)
		pts := []float64{horizon / 4, horizon / 2, horizon}
		snaps := make([]flatSnapshot, len(flats))
		for i, fl := range flats {
			snaps[i] = snapshotFlat(fl, pts)
		}

		var ws Workspace
		checkPortWalk(t, &ws, flats, rate)
		flats2 := append(slices.Clone(flats[rot:]), flats[:rot]...)[:keep]
		checkPortWalk(t, &ws, flats2, rate*(0.5+r.frac()))
		for i, fl := range flats {
			snaps[i].check(t, "member", fl, pts)
		}
	})
}

// TestPortWalkStopsEarly: a port of six of the analyzer's dual-periodic
// members at twice their summed rate ends its busy period well inside the
// window, so the lazy walk answers from a cut sum — fewer vertices than the
// whole sum has — with the whole sum's answer, and warm it allocates
// nothing.
func TestPortWalkStopsEarly(t *testing.T) {
	const horizon = 0.025
	var flats []*Flat
	var rho float64
	for i := 0; i < 6; i++ {
		d, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := NewDelayed(d, float64(i)*1e-3, 135e6)
		if err != nil {
			t.Fatal(err)
		}
		fl := Flatten(dd, horizon)
		flats = append(flats, fl)
		rho += fl.LongTermRate()
	}
	rate := 2 * rho
	var ws Workspace
	checkPortWalk(t, &ws, flats, rate)
	whole := ws.Sum(flats).Segments()
	if _, _, ok := ws.prefixBacklog(flats, rate); !ok {
		t.Fatal("the walk did not end inside the cut sum")
	}
	if cut := ws.fold().Segments(); cut >= whole {
		t.Errorf("the cut sum has %d vertices, the whole sum %d", cut, whole)
	}
	if allocs := testing.AllocsPerRun(100, func() { ws.Backlog(flats, rate, walkFrom, walkTo) }); allocs != 0 {
		t.Errorf("a warm walk allocates %v times", allocs)
	}
}

package ifdev

import (
	"math"
	"testing"

	"fafnet/internal/atm"
	"fafnet/internal/des"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	for _, field := range []func(*Params) *float64{
		func(p *Params) *float64 { return &p.InputPortDelay },
		func(p *Params) *float64 { return &p.FrameSwitchDelay },
		func(p *Params) *float64 { return &p.FrameCellProcessing },
		func(p *Params) *float64 { return &p.CellFrameProcessing },
	} {
		for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := DefaultParams()
			*field(&bad) = v
			if err := bad.Validate(); err == nil {
				t.Errorf("%+v should be rejected", bad)
			}
		}
	}
}

func TestConstantDelays(t *testing.T) {
	p := Params{InputPortDelay: 1e-5, FrameSwitchDelay: 2e-5, FrameCellProcessing: 3e-5, CellFrameProcessing: 4e-5}
	if got := p.SenderConstantDelay(); !units.AlmostEq(got, 6e-5) {
		t.Errorf("SenderConstantDelay = %v, want 6e-5", got)
	}
	if got := p.ReceiverConstantDelay(); !units.AlmostEq(got, 7e-5) {
		t.Errorf("ReceiverConstantDelay = %v, want 7e-5", got)
	}
}

func TestSenderConversionTheorem2(t *testing.T) {
	// Source: 100 kbit bursts every 10 ms. Frame size 20 kbit → 5 frames per
	// burst; each frame = ⌈20000/384⌉ = 53 cells → 20352 payload bits.
	in, err := traffic.NewPeriodic(1e5, 0.010, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	const frameBits = 2e4
	out, err := SenderConversion(in, frameBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fc := atm.CellsPerFrame(frameBits) // 53
	if fc != 53 {
		t.Fatalf("CellsPerFrame = %d, want 53", fc)
	}
	cellBits := float64(fc * atm.CellPayloadBits)
	// A(10ms) = 100 kbit = 5 frames exactly → 5·53 cells.
	if got, want := out.Bits(0.010), 5*cellBits; !units.AlmostEq(got, want) {
		t.Errorf("Bits(10ms) = %v, want %v", got, want)
	}
	// Half a burst (50 kbit = 2.5 frames) rounds to 3 frames.
	if got, want := out.Bits(0.0005), 3*cellBits; !units.AlmostEq(got, want) {
		t.Errorf("Bits(0.5ms) = %v, want %v", got, want)
	}
}

func TestSenderConversionValidation(t *testing.T) {
	in, err := traffic.NewCBR(1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SenderConversion(nil, 1e4, DefaultParams()); err == nil {
		t.Error("nil input should be rejected")
	}
	if _, err := SenderConversion(in, 0, DefaultParams()); err == nil {
		t.Error("zero frame size should be rejected")
	}
	bad := DefaultParams()
	bad.InputPortDelay = -1
	if _, err := SenderConversion(in, 1e4, bad); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestReceiverConversionReframes(t *testing.T) {
	// ATM-side envelope in whole-cell payload units.
	const frameBits = 2e4
	fc := atm.CellsPerFrame(frameBits)
	q := float64(fc * atm.CellPayloadBits)
	in, err := traffic.NewLeakyBucket(2.5*q, 10e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReceiverConversion(in, frameBits, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// An instantaneous burst of 2.5 frames of cells rounds to 3 frames.
	if got := out.Bits(1e-9); !units.AlmostEq(got, 3*q) {
		t.Errorf("Bits(≈0) = %v, want %v", got, 3*q)
	}
	// Conversion preserves the long-term rate (no extra padding added).
	if got := out.LongTermRate(); !units.AlmostEq(got, 10e6) {
		t.Errorf("LongTermRate = %v, want 1e7", got)
	}
}

func TestSegmenterReassemblerRoundTrip(t *testing.T) {
	sim := des.NewSimulator()
	var frames []ReassembledFrame
	reasm, err := NewReassemblerSim(sim, DefaultParams(), func(f ReassembledFrame) {
		frames = append(frames, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	port, err := atm.NewPortSim(sim, atm.DefaultLinkBps, 1e-5, reasm.ReceiveCell)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegmenterSim(sim, DefaultParams(), port)
	if err != nil {
		t.Fatal(err)
	}

	const frameBits = 2e4 // 53 cells
	if err := seg.ReceiveFrame("c1", frameBits); err != nil {
		t.Fatal(err)
	}
	if err := seg.ReceiveFrame("c1", frameBits); err != nil {
		t.Fatal(err)
	}
	if err := seg.ReceiveFrame("c2", 384); err != nil { // single-cell frame
		t.Fatal(err)
	}
	sim.Run(1)

	if len(frames) != 3 {
		t.Fatalf("reassembled %d frames, want 3", len(frames))
	}
	byConn := map[string][]ReassembledFrame{}
	for _, f := range frames {
		byConn[f.ConnID] = append(byConn[f.ConnID], f)
	}
	if len(byConn["c1"]) != 2 {
		t.Fatalf("c1 frames = %d, want 2", len(byConn["c1"]))
	}
	for _, f := range byConn["c1"] {
		if !units.AlmostEq(f.PayloadBits, frameBits) {
			t.Errorf("frame %d payload = %v, want %v", f.FrameSeq, f.PayloadBits, frameBits)
		}
	}
	if got := byConn["c2"][0].PayloadBits; !units.AlmostEq(got, 384) {
		t.Errorf("c2 payload = %v, want 384", got)
	}
	// Frames of one connection arrive in order.
	if byConn["c1"][0].FrameSeq > byConn["c1"][1].FrameSeq {
		t.Error("frames reordered")
	}
	// End-to-end device time must include both constant delays plus 53 cell
	// times plus propagation.
	minTime := DefaultParams().SenderConstantDelay() +
		53*atm.CellTime(atm.DefaultLinkBps) + 1e-5 +
		DefaultParams().ReceiverConstantDelay()
	for _, f := range byConn["c1"] {
		if f.Completed < minTime-units.Eps {
			t.Errorf("frame completed at %v, physically impossible before %v", f.Completed, minTime)
		}
	}
	if reasm.PendingFrames() != 0 {
		t.Errorf("PendingFrames = %d, want 0", reasm.PendingFrames())
	}
}

func TestSegmenterValidation(t *testing.T) {
	sim := des.NewSimulator()
	port, err := atm.NewPortSim(sim, atm.DefaultLinkBps, 0, func(atm.Cell) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSegmenterSim(nil, DefaultParams(), port); err == nil {
		t.Error("nil simulator should be rejected")
	}
	if _, err := NewSegmenterSim(sim, DefaultParams(), nil); err == nil {
		t.Error("nil port should be rejected")
	}
	seg, err := NewSegmenterSim(sim, DefaultParams(), port)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.ReceiveFrame("c", 0); err == nil {
		t.Error("empty frame should be rejected")
	}
}

func TestReassemblerValidation(t *testing.T) {
	sim := des.NewSimulator()
	if _, err := NewReassemblerSim(nil, DefaultParams(), func(ReassembledFrame) {}); err == nil {
		t.Error("nil simulator should be rejected")
	}
	if _, err := NewReassemblerSim(sim, DefaultParams(), nil); err == nil {
		t.Error("nil callback should be rejected")
	}
}

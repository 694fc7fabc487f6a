package fddi

import (
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// deepInput returns the shape of a receiver-side MAC input — the paper's
// source behind a sender MAC, frame→cell conversion and a port — as a chain
// and lowered over the analyzer's 25 ms window, with an allocation 2 % above
// the stability limit: the busy interval is then hundreds of rotations, far
// beyond the flat's window.
func deepInput(t *testing.T) (traffic.Descriptor, *traffic.Flat, MACParams) {
	t.Helper()
	src, err := traffic.NewDualPeriodic(50e3, 10e-3, 10e3, 1e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	var chain traffic.Descriptor = traffic.Delayed{
		Inner:  traffic.Quantized{Inner: traffic.Delayed{Inner: src, Delay: 8e-3, CapBps: 100e6}, QuantumBits: 4000, OutBits: 4240},
		Delay:  1.5e-3,
		CapBps: 140e6,
	}
	flat := traffic.Flatten(chain, 0.025)
	if flat == nil {
		t.Fatal("the chain has no lowering")
	}
	ring := testRing()
	hMin := chain.LongTermRate() * ring.TTRT / ring.BandwidthBps
	return chain, flat, MACParams{Ring: ring, H: 1.02 * hMin}
}

// TestAnalyzeMACBeyondFlatWindow: a lowered input whose busy interval runs far
// past its window is analyzed through its tail chain there, and the result is
// the chain's own.
func TestAnalyzeMACBeyondFlatWindow(t *testing.T) {
	chain, flat, p := deepInput(t)
	want, err := AnalyzeMAC(chain, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeMAC(flat, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.BusyInterval < 10*flat.Horizon() {
		t.Fatalf("busy interval %v s is not deep against the %v s window: the test exercises nothing", want.BusyInterval, flat.Horizon())
	}
	if flat.Horizon() != 0.025 {
		t.Errorf("the analysis moved the flat's window to %v s", flat.Horizon())
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"busy interval", got.BusyInterval, want.BusyInterval},
		{"backlog", got.BufferBits, want.BufferBits},
		{"delay", got.Delay, want.Delay},
	} {
		if !units.WithinRel(c.got, c.want, units.RelTol) {
			t.Errorf("%s over the flat = %v, over its tail chain %v", c.name, c.got, c.want)
		}
	}
}

// TestScanMACAllocationFree holds the busy-interval search plus the Theorem 1
// level and rotation searches at zero allocations, delay-only (what every
// probe runs) and with the backlog, over a shallow busy interval, one of a
// dozen rotations and a deep one that runs far past the flat's window; and
// the closed-form bound every bisection probe tries before it scans.
func TestScanMACAllocationFree(t *testing.T) {
	chain, flat, deep := deepInput(t)
	hMin := chain.LongTermRate() * deep.Ring.TTRT / deep.Ring.BandwidthBps
	shallow := MACParams{Ring: deep.Ring, H: 2e-3}
	first := MACParams{Ring: deep.Ring, H: 1.2 * hMin}
	for _, in := range []traffic.Descriptor{chain, flat} {
		for _, p := range []MACParams{shallow, first, deep} {
			if avg := testing.AllocsPerRun(20, func() { DelayBound(in, p) }); avg != 0 {
				t.Errorf("DelayBound over %T at H=%v allocates %v times per run", in, p.H, avg)
			}
			busy, _, ok := busyInterval(in, p.RotationServiceBits(), p.Ring.TTRT, maxBusyRotations)
			if !ok {
				t.Fatal("no busy interval")
			}
			for _, backlog := range []bool{false, true} {
				run := func() {
					busyInterval(in, p.RotationServiceBits(), p.Ring.TTRT, maxBusyRotations)
					scanMAC(in, p, busy, backlog)
				}
				if avg := testing.AllocsPerRun(20, run); avg != 0 {
					t.Errorf("scanMAC (backlog %v) over %T at B=%v allocates %v times per run", backlog, in, busy, avg)
				}
			}
		}
	}
}

package fddi

import (
	"slices"
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
// level and rotation searches at zero allocations, delay-only and with the
// backlog, and the delay search that scans the busy interval on demand (what
// every probe runs wherever the closed-form bound proves its end), over a
// shallow busy interval, one of a dozen rotations and a deep one that runs
// far past the flat's window; and the closed-form bound every bisection
// probe tries before it scans.
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
			busy, _, ok := busyEnd(in, p)
			if !ok {
				t.Fatal("no busy interval")
			}
			for _, backlog := range []bool{false, true} {
				run := func() {
					busyEnd(in, p)
					scanMAC(in, p, busy, backlog)
				}
				if avg := testing.AllocsPerRun(20, run); avg != 0 {
					t.Errorf("scanMAC (backlog %v) over %T at B=%v allocates %v times per run", backlog, in, busy, avg)
				}
			}
			lazy := func() {
				s := newMACScan(in, p)
				s.scan(false)
			}
			if s := newMACScan(in, p); !s.converges() {
				t.Errorf("over %T at H=%v the closed-form bound proves no end: the on-demand scan does not run", in, p.H)
			} else if avg := testing.AllocsPerRun(20, lazy); avg != 0 {
				t.Errorf("the on-demand scan over %T at H=%v allocates %v times per run", in, p.H, avg)
			}
		}
	}
}

// TestLazyBusyIntervalAnswers holds the eager scan's B to the
// rotation-by-rotation scan from rotation 1 that its skip-ahead and its
// rate-floor start stand for, and the on-demand scan's two answers to that
// B, over a shallow busy interval, one of a dozen rotations and a deep one,
// chain and flat: every rotation below the scan's first fails Eq. 9's end
// test, the deep interval's scan starts past rotation 1, and before(x) is
// x < B and clip(v) is min(v, B) at every point of a grid over (0, 1.5·B]
// and at the floats around every rotation boundary up to it, asked of a
// fresh scan and of one scan asked in increasing order, as the delay search
// asks; the scan never spends more evaluations than the eager one, and none
// past the rotation a question needs.
func TestLazyBusyIntervalAnswers(t *testing.T) {
	chain, flat, deep := deepInput(t)
	hMin := chain.LongTermRate() * deep.Ring.TTRT / deep.Ring.BandwidthBps
	for _, in := range []traffic.Descriptor{chain, flat} {
		for _, p := range []MACParams{{Ring: deep.Ring, H: 2e-3}, {Ring: deep.Ring, H: 1.2 * hMin}, deep} {
			busy, evals, ok := busyEnd(in, p)
			if !ok {
				t.Fatal("no busy interval")
			}
			k := 1.0
			for in.Bits(k*p.Ring.TTRT) > (k-1)*p.RotationServiceBits() {
				k++
			}
			if ref := k * p.Ring.TTRT; busy != ref {
				t.Fatalf("%T at H=%v: B = %v, the rotation-by-rotation scan %v", in, p.H, busy, ref)
			}
			start := scanStart(in, p)
			for k := 1; k < start; k++ {
				if in.Bits(float64(k)*p.Ring.TTRT) <= float64(k-1)*p.RotationServiceBits() {
					t.Fatalf("%T at H=%v: the scan starts at rotation %d, and rotation %d ends the busy interval", in, p.H, start, k)
				}
			}
			if p.H == deep.H && start <= 1 {
				t.Errorf("%T at H=%v: the deep interval's scan starts at rotation %d: the rate floor skips nothing", in, p.H, start)
			}
			var xs []float64
			for i := 1; i <= 300; i++ {
				xs = append(xs, 1.5*busy*float64(i)/300)
			}
			for k := 1.0; k*p.Ring.TTRT <= 1.5*busy; k++ {
				xs = ulpNeighbours(xs, k*p.Ring.TTRT)
			}
			xs = ulpNeighbours(xs, busy)
			slices.Sort(xs)
			lazy := func() *macScan {
				s := newMACScan(in, p)
				return &s
			}
			before, clip := lazy(), lazy()
			for _, x := range xs {
				if got := lazy().before(x); got != (x < busy) {
					t.Fatalf("%T at H=%v: before(%v) = %v on a fresh scan, B = %v", in, p.H, x, got, busy)
				}
				if got := lazy().clip(x); got != min(x, busy) {
					t.Fatalf("%T at H=%v: clip(%v) = %v on a fresh scan, B = %v", in, p.H, x, got, busy)
				}
				if got := before.before(x); got != (x < busy) {
					t.Fatalf("%T at H=%v: before(%v) = %v in order, B = %v", in, p.H, x, got, busy)
				}
				if got := clip.clip(x); got != min(x, busy) {
					t.Fatalf("%T at H=%v: clip(%v) = %v in order, B = %v", in, p.H, x, got, busy)
				}
			}
			if before.evals != evals || clip.evals != evals {
				t.Errorf("%T at H=%v: the scans asked past B spent %d and %d evaluations, the eager scan %d", in, p.H, before.evals, clip.evals, evals)
			}
			if s := lazy(); s.before(busy/2) && s.evals >= evals && busy > 2*p.Ring.TTRT {
				t.Errorf("%T at H=%v: before(B/2) scanned all %d rotations' evaluations", in, p.H, s.evals)
			}
		}
	}
}

package fddi

import (
	"errors"
	"math"
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

func testRing() RingConfig {
	return RingConfig{BandwidthBps: 100e6, TTRT: 8e-3, Overhead: 1e-3, HopLatency: 5e-6}
}

func mustPeriodic(t *testing.T, c, p, peak float64) traffic.Periodic {
	t.Helper()
	d, err := traffic.NewPeriodic(c, p, peak)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnalyzeMACClosedForm(t *testing.T) {
	// 100 kbit every 10 ms at medium peak, H = 2 ms (service 200 kbit per
	// rotation). Worked by hand:
	//   busy interval: first k with A(k·8ms) <= (k−1)·200k → k=2, B = 16 ms
	//   backlog:       A just below 16 ms = 200 kbit (avail still 0)
	//   delay:         worst at t→0: (⌈ε/200k⌉+1)·8ms − ε = 16 ms
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	res, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: 2e-3}, Options{})
	if err != nil {
		t.Fatalf("AnalyzeMAC: %v", err)
	}
	if !units.AlmostEq(res.BusyInterval, 0.016) {
		t.Errorf("BusyInterval = %v, want 0.016", res.BusyInterval)
	}
	if !units.WithinRel(res.BufferBits, 2e5, 1e-6) {
		t.Errorf("BufferBits = %v, want 2e5", res.BufferBits)
	}
	if !units.WithinRel(res.Delay, 0.016, 1e-6) {
		t.Errorf("Delay = %v, want 0.016", res.Delay)
	}
}

func TestAnalyzeMACMoreServiceNeverWorse(t *testing.T) {
	// Increasing H must not increase the delay bound or the backlog.
	in := mustPeriodic(t, 1.5e5, 0.010, 100e6)
	prevDelay := math.Inf(1)
	prevBacklog := math.Inf(1)
	for _, h := range []float64{1.5e-3, 2e-3, 3e-3, 4e-3, 6e-3} {
		res, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: h}, Options{})
		if err != nil {
			t.Fatalf("H=%v: %v", h, err)
		}
		if res.Delay > prevDelay+units.Eps {
			t.Errorf("H=%v: delay %v exceeds delay %v at smaller H", h, res.Delay, prevDelay)
		}
		if res.BufferBits > prevBacklog+units.Eps {
			t.Errorf("H=%v: backlog %v exceeds backlog %v at smaller H", h, res.BufferBits, prevBacklog)
		}
		prevDelay, prevBacklog = res.Delay, res.BufferBits
	}
}

func TestAnalyzeMACOverload(t *testing.T) {
	// rho·TTRT = 10 Mb/s · 8 ms = 80 kbit; H·BW = 50 kbit: unstable.
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	_, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: 0.5e-3}, Options{})
	if !errors.Is(err, ErrOverload) {
		t.Errorf("err = %v, want ErrOverload", err)
	}
}

// TestAnalyzeMACNoConvergence runs one source at two allocations on either
// side of the busy-interval cut (maxBusyRotations): a busy interval past it
// is ErrNoConvergence, one just inside is a finite result. The closed-form
// bound reaches the same verdict on both sides: it declines past the cut,
// and inside it answers with a bound the scan's χ does not exceed. For
// A(t) = σ + ρ·t the busy interval ends at the first rotation k with
// σ + ρ·k·TTRT <= (k−1)·H·BW, so the allocation for a busy interval of k
// rotations is H·BW = ρ·TTRT + (σ + ρ·TTRT)/(k − 1).
func TestAnalyzeMACNoConvergence(t *testing.T) {
	ring := testRing()
	in, err := traffic.NewLeakyBucket(1e6, 10e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(rotations float64) float64 {
		rt := in.Rho * ring.TTRT
		return (rt + (in.Sigma+rt)/(rotations-1)) / ring.BandwidthBps
	}

	past := MACParams{Ring: ring, H: alloc(maxBusyRotations + 100)}
	if _, err := AnalyzeMAC(in, past, Options{}); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("busy interval past the cut: err = %v, want ErrNoConvergence", err)
	}
	if b, ok := DelayBound(in, past); ok {
		t.Errorf("busy interval past the cut: the bound answered %v, want no answer", b)
	}

	inside := MACParams{Ring: ring, H: alloc(maxBusyRotations - 100)}
	res, err := AnalyzeMAC(in, inside, Options{})
	if err != nil {
		t.Fatalf("busy interval just inside the cut: %v", err)
	}
	if rot := res.BusyInterval / ring.TTRT; rot < maxBusyRotations-200 || rot > maxBusyRotations {
		t.Errorf("busy interval of %v rotations, want just inside %d", rot, maxBusyRotations)
	}
	if math.IsInf(res.Delay, 0) || res.Delay <= 0 {
		t.Errorf("delay %v, want finite and positive", res.Delay)
	}
	b, ok := DelayBound(in, inside)
	if !ok {
		t.Fatal("busy interval just inside the cut: the bound gave no answer")
	}
	if res.Delay > b {
		t.Errorf("chi = %v exceeds the closed-form bound %v", res.Delay, b)
	}
}

func TestAnalyzeMACBufferOverflow(t *testing.T) {
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	// Worst-case backlog is 200 kbit (see closed-form test); a 100 kbit
	// buffer must overflow.
	_, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: 2e-3, BufferBits: 1e5}, Options{})
	if !errors.Is(err, ErrBufferOverflow) {
		t.Errorf("err = %v, want ErrBufferOverflow", err)
	}
	// A sufficient buffer passes.
	if _, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: 2e-3, BufferBits: 2.5e5}, Options{}); err != nil {
		t.Errorf("sufficient buffer rejected: %v", err)
	}
}

// TestAnalyzeMACBufferVerdictHasNoTolerance puts the worst-case backlog F
// just above the buffer, inside the relative tolerance the float engine
// uses elsewhere: the verdict must err toward rejection, so F > S overflows
// however small the excess, and only S ≥ F passes.
func TestAnalyzeMACBufferVerdictHasNoTolerance(t *testing.T) {
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	p := MACParams{Ring: testRing(), H: 2e-3}
	res, err := AnalyzeMAC(in, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.BufferBits = res.BufferBits / (1 + units.RelTol/2)
	if !(res.BufferBits > p.BufferBits && res.BufferBits <= p.BufferBits*(1+units.RelTol)) {
		t.Fatalf("F = %v is not in (S, S·(1+RelTol)] for S = %v", res.BufferBits, p.BufferBits)
	}
	if _, err := AnalyzeMAC(in, p, Options{}); !errors.Is(err, ErrBufferOverflow) {
		t.Errorf("F = %v over S = %v by %v: err = %v, want ErrBufferOverflow", res.BufferBits, p.BufferBits, res.BufferBits-p.BufferBits, err)
	}
	p.BufferBits = res.BufferBits
	if _, err := AnalyzeMAC(in, p, Options{}); err != nil {
		t.Errorf("S = F = %v rejected: %v", p.BufferBits, err)
	}
}

func TestAnalyzeMACValidation(t *testing.T) {
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	if _, err := AnalyzeMAC(nil, MACParams{Ring: testRing(), H: 1e-3}, Options{}); err == nil {
		t.Error("nil descriptor should be rejected")
	}
	if _, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: 0}, Options{}); err == nil {
		t.Error("zero H should be rejected")
	}
	bad := testRing()
	bad.TTRT = 0
	if _, err := AnalyzeMAC(in, MACParams{Ring: bad, H: 1e-3}, Options{}); err == nil {
		t.Error("invalid ring config should be rejected")
	}
}

func TestAvail(t *testing.T) {
	p := MACParams{Ring: testRing(), H: 2e-3}
	tests := []struct {
		t, want float64
	}{
		{0, 0},
		{0.004, 0},     // within the first rotation: nothing guaranteed
		{0.008, 0},     // ⌊1⌋−1 = 0
		{0.016, 2e5},   // one full service quantum
		{0.0239, 2e5},  // still two rotations started
		{0.024, 4e5},   // three rotations: two quanta
		{0.0800, 18e5}, // ten rotations
	}
	for _, tt := range tests {
		if got := p.Avail(tt.t); !units.AlmostEq(got, tt.want) {
			t.Errorf("Avail(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestOutputEnvelopeDominatesDepartures(t *testing.T) {
	// The output envelope must bound what can actually leave the MAC: at
	// most avail(t+I) − avail(t) <= H·BW·(⌈I/TTRT⌉+1) in any window, and at
	// least the input's long-term volume must pass.
	in := mustPeriodic(t, 1e5, 0.010, 100e6)
	p := MACParams{Ring: testRing(), H: 2e-3}
	res, err := AnalyzeMAC(in, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	// The output envelope preserves the long-term rate.
	if got := out.LongTermRate(); !units.WithinRel(got, in.LongTermRate(), 1e-6) {
		t.Errorf("output rho = %v, want %v", got, in.LongTermRate())
	}
	// The output can never exceed the medium rate.
	for i := 1; i <= 200; i++ {
		iv := float64(i) * 1e-4
		if got := out.Bits(iv); got > 100e6*iv*(1+units.RelTol)+units.Eps {
			t.Fatalf("output Bits(%v) = %v exceeds medium rate", iv, got)
		}
	}
	// The output envelope dominates the input envelope shifted by zero
	// delay over long windows (all arrived traffic eventually leaves).
	if got, want := out.Bits(1.0), in.Bits(1.0)*0.95; got < want {
		t.Errorf("output Bits(1s) = %v too small vs input %v", got, in.Bits(1.0))
	}
}

// TestOutputIsDelayBasedBound pins Theorem 1's one output rule: the output
// envelope is min(BW·I, A(I + χ)) bit for bit, for a source, the paper's
// dual-periodic source, and a chained input (a MAC output converted to cells,
// as the next server sees it).
func TestOutputIsDelayBasedBound(t *testing.T) {
	ring := testRing()
	p := MACParams{Ring: ring, H: 2e-3}
	periodic := mustPeriodic(t, 1e5, 0.010, 100e6)
	dual, err := traffic.NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	first, err := AnalyzeMAC(periodic, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := traffic.NewQuantized(first.Output, 384, 424)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   traffic.Descriptor
	}{{"periodic", periodic}, {"dual-periodic", dual}, {"chained", chained}} {
		res, err := AnalyzeMAC(tc.in, p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 1; i <= 200; i++ {
			iv := float64(i) * 2.5e-4
			want := min(ring.BandwidthBps*iv, tc.in.Bits(iv+res.Delay))
			if got := res.Output.Bits(iv); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Output.Bits(%v) = %v, want min(BW·I, A(I+chi)) = %v", tc.name, iv, got, want)
			}
		}
	}
}

func TestAnalyzeMACDualPeriodicSource(t *testing.T) {
	// The paper's workload: C1=150 kbit/10 ms, C2=30 kbit/1 ms, peak 100 Mb/s.
	in, err := traffic.NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeMAC(in, MACParams{Ring: testRing(), H: 2e-3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// rho·TTRT = 15 Mb/s·8 ms = 120 kbit < 200 kbit: stable, finite bound.
	if res.Delay <= 0 || math.IsInf(res.Delay, 0) {
		t.Errorf("Delay = %v, want finite positive", res.Delay)
	}
	// A worst-case FDDI MAC delay can never be below 2·TTRT − H (token may
	// just have left and must make a full rotation plus the vacant part).
	if res.Delay < 2*testRing().TTRT-2e-3-units.Eps {
		t.Errorf("Delay = %v below protocol floor %v", res.Delay, 2*testRing().TTRT-2e-3)
	}
	if res.BusyInterval <= 0 {
		t.Errorf("BusyInterval = %v, want positive", res.BusyInterval)
	}
	if res.BufferBits <= 0 {
		t.Errorf("BufferBits = %v, want positive", res.BufferBits)
	}
}

package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fafnet/internal/units"
)

// chainDepth counts transform nodes above the source.
func chainDepth(d Descriptor) int {
	switch v := d.(type) {
	case Delayed:
		return 1 + chainDepth(v.Inner)
	case RateCapped:
		return 1 + chainDepth(v.Inner)
	case Quantized:
		return 1 + chainDepth(v.Inner)
	default:
		return 0
	}
}

// assertSameEnvelope checks pointwise equality of two descriptors over a
// probe grid covering sub-burst, multi-period, and extension ranges.
func assertSameEnvelope(t *testing.T, got, want Descriptor, label string) {
	t.Helper()
	if g, w := got.LongTermRate(), want.LongTermRate(); !units.WithinRel(g, w, units.RelTol) {
		t.Errorf("%s: LongTermRate = %v, want %v", label, g, w)
	}
	for _, iv := range []float64{1e-7, 1e-5, 1e-4, 3e-4, 1e-3, 2.5e-3, 1e-2, 3.3e-2, 0.1, 1} {
		g, w := got.Bits(iv), want.Bits(iv)
		if !units.WithinRel(g, w, units.RelTol) {
			t.Errorf("%s: Bits(%v) = %v, want %v", label, iv, g, w)
		}
	}
}

func TestFuseDelayedChainEqualCaps(t *testing.T) {
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 140e6
	var chain Descriptor = src
	for i := 0; i < 5; i++ {
		chain, err = NewDelayed(chain, 0.2e-3, cap)
		if err != nil {
			t.Fatal(err)
		}
	}
	fused := Fuse(chain)
	if d := chainDepth(fused); d != 1 {
		t.Errorf("fused depth = %d, want 1 (got %v)", d, fused)
	}
	del, ok := fused.(Delayed)
	if !ok {
		t.Fatalf("fused = %T, want Delayed", fused)
	}
	if !units.WithinRel(del.Delay, 1e-3, units.RelTol) {
		t.Errorf("fused delay = %v, want 1e-3", del.Delay)
	}
	if del.CapBps != cap {
		t.Errorf("fused cap = %v, want %v", del.CapBps, cap)
	}
	assertSameEnvelope(t, fused, chain, "Delayed^5")
}

func TestFuseInnerUncappedAndDominated(t *testing.T) {
	src, _ := NewPeriodic(10e3, 1e-3, 50e6)
	inner, _ := NewDelayed(src, 1e-3, 0) // uncapped
	outer, _ := NewDelayed(inner, 2e-3, 30e6)
	fused := Fuse(outer)
	if d := chainDepth(fused); d != 1 {
		t.Errorf("uncapped-inner fuse depth = %d, want 1", d)
	}
	assertSameEnvelope(t, fused, outer, "D[c]∘D[0]")

	innerHi, _ := NewDelayed(src, 1e-3, 80e6) // dominated by outer's 30e6
	outer2, _ := NewDelayed(innerHi, 2e-3, 30e6)
	fused2 := Fuse(outer2)
	if d := chainDepth(fused2); d != 1 {
		t.Errorf("dominated-inner fuse depth = %d, want 1", d)
	}
	assertSameEnvelope(t, fused2, outer2, "D[30M]∘D[80M]")
}

func TestFuseKeepsUnfusableCaps(t *testing.T) {
	// Inner cap strictly below outer cap: the intermediate c1·(I+d2) term is
	// not expressible as a single Delayed, so the chain must be preserved.
	src, _ := NewPeriodic(10e3, 1e-3, 50e6)
	inner, _ := NewDelayed(src, 1e-3, 20e6)
	outer, _ := NewDelayed(inner, 2e-3, 30e6)
	fused := Fuse(outer)
	if d := chainDepth(fused); d != 2 {
		t.Errorf("unfusable chain depth = %d, want 2", d)
	}
	assertSameEnvelope(t, fused, outer, "D[30M]∘D[20M]")
}

func TestFuseRateCapRules(t *testing.T) {
	src, _ := NewPeriodic(10e3, 1e-3, 50e6)

	r1, _ := NewRateCapped(src, 40e6)
	r2, _ := NewRateCapped(r1, 20e6)
	fused := Fuse(r2)
	rc, ok := fused.(RateCapped)
	if !ok || rc.CapBps != 20e6 || chainDepth(fused) != 1 {
		t.Errorf("R∘R fused to %v, want RateCapped(20e6, src)", fused)
	}
	assertSameEnvelope(t, fused, r2, "R∘R")

	d1, _ := NewDelayed(src, 1e-3, 30e6)
	rOverD, _ := NewRateCapped(d1, 20e6)
	fused = Fuse(rOverD)
	del, ok := fused.(Delayed)
	if !ok || del.CapBps != 20e6 || chainDepth(fused) != 1 {
		t.Errorf("R∘D fused to %v, want Delayed(cap=20e6)", fused)
	}
	assertSameEnvelope(t, fused, rOverD, "R∘D")

	dOverR, _ := NewDelayed(r1, 1e-3, 30e6) // r = 40e6 >= c = 30e6: dominated
	fused = Fuse(dOverR)
	if chainDepth(fused) != 1 {
		t.Errorf("D∘R (dominated) depth = %d, want 1", chainDepth(fused))
	}
	assertSameEnvelope(t, fused, dOverR, "D∘R")

	rLow, _ := NewRateCapped(src, 10e6)
	dOverRLow, _ := NewDelayed(rLow, 1e-3, 30e6) // r < c: must keep both
	fused = Fuse(dOverRLow)
	if chainDepth(fused) != 2 {
		t.Errorf("D∘R (binding inner cap) depth = %d, want 2", chainDepth(fused))
	}
	assertSameEnvelope(t, fused, dOverRLow, "D∘R binding")
}

func TestFuseZeroDelay(t *testing.T) {
	src, _ := NewPeriodic(10e3, 1e-3, 50e6)
	d0, _ := NewDelayed(src, 0, 0)
	if fused := Fuse(d0); fused != Descriptor(src) {
		t.Errorf("D[0,0] fused to %v, want the source itself", fused)
	}
	d0c, _ := NewDelayed(src, 0, 30e6)
	fused := Fuse(d0c)
	if _, ok := fused.(RateCapped); !ok {
		t.Errorf("D[0,c] fused to %T, want RateCapped", fused)
	}
	assertSameEnvelope(t, fused, d0c, "D[0,c]")
}

func TestFuseQuantizedAdjacency(t *testing.T) {
	src, _ := NewPeriodic(10e3, 1e-3, 50e6)
	q1, _ := NewQuantized(src, 4000, 4500)
	q2, _ := NewQuantized(q1, 4500, 5000) // outer quantum == inner out
	fused := Fuse(q2)
	if chainDepth(fused) != 1 {
		t.Errorf("Q∘Q (matched units) depth = %d, want 1", chainDepth(fused))
	}
	assertSameEnvelope(t, fused, q2, "Q∘Q matched")

	q3, _ := NewQuantized(q1, 9000, 9000) // mismatched: must keep both
	fused = Fuse(q3)
	if chainDepth(fused) != 2 {
		t.Errorf("Q∘Q (mismatched units) depth = %d, want 2", chainDepth(fused))
	}
	assertSameEnvelope(t, fused, q3, "Q∘Q mismatched")
}

func TestFuseAggregateFlattening(t *testing.T) {
	a, _ := NewCBR(1e6)
	b, _ := NewPeriodic(10e3, 1e-3, 50e6)
	inner := NewAggregate(a, b)
	outer := NewAggregate(inner, a)
	fused := Fuse(outer)
	agg, ok := fused.(Aggregate)
	if !ok || agg.Len() != 3 {
		t.Errorf("nested aggregate fused to %v, want flat 3-member aggregate", fused)
	}
	assertSameEnvelope(t, fused, outer, "Aggregate flatten")
}

// TestFuseRandomizedChains builds random transform stacks over random
// sources and asserts the fused envelope agrees everywhere.
func TestFuseRandomizedChains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		src, err := NewDualPeriodic(
			1e3+rng.Float64()*100e3, 1e-3+rng.Float64()*20e-3,
			1e2+rng.Float64()*1e3, 1e-4+rng.Float64()*5e-4,
			1e9)
		if err != nil {
			// Random parameters violating C2<=C1 or rate ordering: skip.
			continue
		}
		var chain Descriptor = src
		depth := 1 + rng.Intn(6)
		for i := 0; i < depth; i++ {
			switch rng.Intn(3) {
			case 0:
				chain, err = NewDelayed(chain, rng.Float64()*5e-3, []float64{0, 140e6, 80e6, 140e6}[rng.Intn(4)])
			case 1:
				chain, err = NewRateCapped(chain, 20e6+rng.Float64()*200e6)
			default:
				q := 1e3 + rng.Float64()*40e3
				chain, err = NewQuantized(chain, q, q*(1+rng.Float64()*0.2))
			}
			if err != nil {
				t.Fatalf("trial %d: building chain: %v", trial, err)
			}
		}
		fused := Fuse(chain)
		for probe := 0; probe < 40; probe++ {
			iv := math.Exp(rng.Float64()*12 - 9) // ~0.12 ms .. 20 s, log-spaced
			g, w := fused.Bits(iv), chain.Bits(iv)
			if !units.WithinRel(g, w, units.RelTol) {
				t.Fatalf("trial %d: fused(%v) = %v, chain = %v (chain %v)", trial, iv, g, w, chain)
			}
		}
	}
}

func ExampleFuse() {
	src, _ := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	var chain Descriptor = src
	for i := 0; i < 3; i++ {
		chain, _ = NewDelayed(chain, 0.5e-3, 140e6)
	}
	fmt.Println(Fuse(chain))
	// Output:
	// Delayed(d=0.0015 s, cap=1.4e+08 bps, inner=DualPeriodic(C1=5e+04 b/P1=0.01 s, C2=1e+04 b/P2=0.001 s, peak=1e+08 bps))
}

// TestFuseRootOverFusedOperands holds the root-only rule to Fuse over the
// descriptors of every type (everyDescriptor) and along the analyzer's stage
// chain. Fuse is idempotent — Fuse(Fuse(x)) deep-equals Fuse(x) — and every
// root the analysis puts over a fused operand (a Delayed with no cap, a
// dominated or an undominated one, a zero delay, a RateCapped, a Quantized
// that merges with a conversion below it or does not, an Aggregate and a
// Min) fused by FuseRoot deep-equals Fuse of the same root over the raw
// operand. The stage chain is built as the analyzer builds it — the MAC
// output over the lowered source, the frame→cell conversion, two ports on
// one capacity, the reassembly — each stage by FuseRoot over the last, and
// held at every stage to Fuse of the whole raw chain.
func TestFuseRootOverFusedOperands(t *testing.T) {
	roots := func(x Descriptor) []Descriptor {
		return []Descriptor{
			Delayed{Inner: x, Delay: 0.4e-3},
			Delayed{Inner: x, Delay: 0.4e-3, CapBps: 140e6},
			Delayed{Inner: x, Delay: 0.4e-3, CapBps: 20e6},
			Delayed{Inner: x, CapBps: 140e6},
			Delayed{Inner: x},
			RateCapped{Inner: x, CapBps: 50e6},
			Quantized{Inner: x, QuantumBits: 94 * 384, OutBits: 94 * 384},
			Quantized{Inner: x, QuantumBits: 36000, OutBits: 94 * 384},
			NewAggregate(x, x),
			Min{members: []Descriptor{x, x}},
		}
	}
	for _, d := range everyDescriptor(t) {
		name := descriptorName(d)
		f := Fuse(d)
		if ff := Fuse(f); !reflect.DeepEqual(ff, f) {
			t.Errorf("%s: Fuse(Fuse(x)) = %v, Fuse(x) = %v", name, ff, f)
		}
		raw, over := roots(d), roots(f)
		for i := range raw {
			if got, want := FuseRoot(over[i]), Fuse(raw[i]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, root %d: FuseRoot over the fused operand = %v, Fuse over the raw one = %v", name, i, got, want)
			}
		}
	}

	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	flat := Flatten(src, 0.025)
	stages := []func(Descriptor) Descriptor{
		func(x Descriptor) Descriptor { return Delayed{Inner: x, Delay: 6.1e-3, CapBps: 100e6} }, // sender MAC
		func(x Descriptor) Descriptor { return Quantized{Inner: x, QuantumBits: 36000, OutBits: 94 * 384} },
		func(x Descriptor) Descriptor { return Delayed{Inner: x, Delay: 0.3e-3, CapBps: 140e6} }, // uplink
		func(x Descriptor) Descriptor { return Delayed{Inner: x, Delay: 0.2e-3, CapBps: 140e6} }, // downlink
		func(x Descriptor) Descriptor { return Quantized{Inner: x, QuantumBits: 94 * 384, OutBits: 94 * 384} },
	}
	var raw, rooted Descriptor = flat, flat
	for i, stage := range stages {
		raw, rooted = stage(raw), FuseRoot(stage(rooted))
		if want := Fuse(raw); !reflect.DeepEqual(rooted, want) {
			t.Fatalf("stage %d: FuseRoot along the chain = %v, Fuse of the chain = %v", i, rooted, want)
		}
	}
}

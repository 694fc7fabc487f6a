package traffic

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fafnet/internal/units"
)

const flatTestHorizon = 64e-3

// flatCases enumerates one chain per lowering rule, shaped like the envelopes
// the admission analysis actually builds (harness sources, conversion
// quantization, stage delays).
func flatCases(t *testing.T) map[string]Descriptor {
	cbr, err := NewCBR(4e6)
	if err != nil {
		t.Fatal(err)
	}
	per, err := NewPeriodic(48000, 8e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := NewDualPeriodic(120000, 10e-3, 24000, 1e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLeakyBucket(30000, 2e6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	lbNoPeak, err := NewLeakyBucket(30000, 2e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	lbNoSigma, err := NewLeakyBucket(0, 2e6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	// The constructor rejects peak < ρ; build the literal to cover the
	// lowering's defensive branch anyway.
	lbSlowPeak := LeakyBucket{Sigma: 30000, Rho: 2e6, PeakBps: 1e6}
	quant, err := NewQuantized(dual, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := NewDelayed(per, 1.7e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	delayedCap, err := NewDelayed(quant, 2.3e-3, 135e6)
	if err != nil {
		t.Fatal(err)
	}
	stage2, err := NewDelayed(delayedCap, 0.9e-3, 135e6)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := NewRateCapped(lb, 40e6)
	if err != nil {
		t.Fatal(err)
	}
	// The regulator's output: the bucket line against the delayed input, and
	// the same one stage further on. minThree's members cross each other
	// repeatedly (a staircase, a ramp and a burst-then-rate line).
	shaped, err := NewMin(lbNoPeak, delayed)
	if err != nil {
		t.Fatal(err)
	}
	shapedStage, err := NewDelayed(shaped, 1.1e-3, 135e6)
	if err != nil {
		t.Fatal(err)
	}
	minThree, err := NewMin(quant, cbr, lb)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Descriptor{
		"min":          shaped,
		"delayedMin":   shapedStage,
		"minThree":     minThree,
		"cbr":          cbr,
		"periodic":     per,
		"dual":         dual,
		"leaky":        lb,
		"leakyNoPeak":  lbNoPeak,
		"leakyNoSigma": lbNoSigma,
		"leakySlow":    lbSlowPeak,
		"quantized":    quant,
		"delayed":      delayed,
		"delayedCap":   delayedCap,
		"twoStage":     stage2,
		"rateCapped":   capped,
		"aggregate":    NewAggregate(per, dual, cbr, quant),
	}
}

// probePoints assembles the evaluation points the equivalence check uses:
// dense seeded-random coverage of (0, 1.5·horizon] plus every vertex of the
// chain's lowering bracketed from both sides, not the vertex itself: a
// staircase vertex sits where CeilDiv's snap first rounds up, and there the
// left-continuous array reads the lower step. Brackets sit well outside the
// CeilDiv/FloorDiv snap radius so both evaluation paths round identically.
func probePoints(d Descriptor, horizon float64, rng *rand.Rand) []float64 {
	pts := []float64{0, -1e-3, horizon, horizon * 1.5}
	for i := 0; i < 500; i++ {
		pts = append(pts, rng.Float64()*1.5*horizon)
	}
	for _, p := range Flatten(d, horizon).ts {
		eps := 1e-6 * math.Max(1e-3, p)
		pts = append(pts, p-eps, p+eps)
	}
	return pts
}

func checkAgreement(t *testing.T, name string, d Descriptor, f *Flat, pts []float64) {
	t.Helper()
	for _, pt := range pts {
		want := d.Bits(pt)
		got := f.Bits(pt)
		if !units.WithinRel(got, want, units.RelTol) {
			t.Fatalf("%s: Bits(%v) flat=%v chain=%v", name, pt, got, want)
		}
	}
	if got, want := f.LongTermRate(), d.LongTermRate(); got != want {
		t.Fatalf("%s: LongTermRate flat=%v chain=%v", name, got, want)
	}
}

// TestFlattenPointwiseAgreement is the core lowering property: every
// supported chain evaluates identically (within RelTol) through the flat
// array and through the closure tree, in and beyond the flat window.
func TestFlattenPointwiseAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(20250808))
	for name, d := range flatCases(t) {
		f := Flatten(d, flatTestHorizon)
		if f == nil {
			t.Fatalf("%s: Flatten returned nil", name)
		}
		if f.Horizon() <= 0 || f.Segments() == 0 {
			t.Fatalf("%s: degenerate flat: horizon=%v segments=%d", name, f.Horizon(), f.Segments())
		}
		checkAgreement(t, name, d, f, probePoints(d, flatTestHorizon, rng))
	}
}

// TestFlattenFuseChains lowers the same randomized chains the fusion harness
// builds and checks pointwise agreement against the fused closure tree.
func TestFlattenFuseChains(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		var src Descriptor
		switch trial % 3 {
		case 0:
			c1 := 50000 + rng.Float64()*150000
			d, err := NewDualPeriodic(c1, 0.010, c1/5, 0.001, 100e6)
			if err != nil {
				t.Fatal(err)
			}
			src = d
		case 1:
			d, err := NewPeriodic(20000+rng.Float64()*80000, []float64{5e-3, 8e-3, 10e-3}[rng.Intn(3)], 100e6)
			if err != nil {
				t.Fatal(err)
			}
			src = d
		default:
			d, err := NewCBR(2e6 + rng.Float64()*8e6)
			if err != nil {
				t.Fatal(err)
			}
			src = d
		}
		chain, err := NewQuantized(src, 36000, 94*384)
		if err != nil {
			t.Fatal(err)
		}
		var d Descriptor = chain
		for s := 0; s < 1+rng.Intn(3); s++ {
			d, err = NewDelayed(d, 0.2e-3+rng.Float64()*2e-3, 135e6)
			if err != nil {
				t.Fatal(err)
			}
		}
		fused := Fuse(d)
		f := Flatten(fused, flatTestHorizon)
		if f == nil {
			t.Fatalf("trial %d: Flatten(Fuse(chain)) returned nil", trial)
		}
		checkAgreement(t, "fused chain", fused, f, probePoints(fused, flatTestHorizon, rng))
	}
}

// TestFlatHintMatchesBinarySearch evaluates one flat twice over the same
// points — once ascending (exercising the cursor hint) and once in random
// order (exercising the binary-search fallback) — and demands bit-identical
// results: the hint is an index shortcut, never an approximation.
func TestFlatHintMatchesBinarySearch(t *testing.T) {
	d := flatCases(t)["quantized"]
	rng := rand.New(rand.NewSource(7))
	pts := make([]float64, 2000)
	for i := range pts {
		pts[i] = rng.Float64() * flatTestHorizon
	}
	sort.Float64s(pts)
	asc := Flatten(d, flatTestHorizon)
	shuffled := Flatten(d, flatTestHorizon)
	want := make([]float64, len(pts))
	for i, pt := range pts {
		want[i] = asc.Bits(pt)
	}
	perm := rng.Perm(len(pts))
	for _, i := range perm {
		if got := shuffled.Bits(pts[i]); got != want[i] {
			t.Fatalf("Bits(%v): shuffled=%v ascending=%v", pts[i], got, want[i])
		}
	}
}

// opaque is a descriptor type from outside the package's lowering rules.
type opaque struct{ Descriptor }

// TestFlattenUnsupportedReturnsNil: a chain holding a type Flatten has no rule
// for is not lowered — at the root or under a transform — and neither is
// anything over an empty window.
func TestFlattenUnsupportedReturnsNil(t *testing.T) {
	cases := flatCases(t)
	u := opaque{cases["periodic"]}
	if Flatten(u, flatTestHorizon) != nil {
		t.Fatal("Flatten of a user-defined descriptor must return nil (no lowering rule)")
	}
	if Flatten(cases["periodic"], 0) != nil {
		t.Fatal("Flatten with zero horizon must return nil")
	}
	d, err := NewDelayed(u, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMin(cases["cbr"], d)
	if err != nil {
		t.Fatal(err)
	}
	if Flatten(d, flatTestHorizon) != nil || Flatten(m, flatTestHorizon) != nil {
		t.Fatal("Flatten must return nil for a chain over a user-defined descriptor")
	}
}

// checkMinFlats holds Flatten(Min{a, b}) to the soundness property of the
// rule: at no point below the smaller operand (every segment lies on one
// operand's line; re-anchoring a line at a union vertex or a crossing moves it
// by float re-association only, which minUlps bounds), nowhere above it by
// more than units.RelTol relative plus units.Eps, and beyond the shared window
// the Min chain itself.
// checkNondecreasing holds f to the order every producer keeps: no slope is
// negative, and every right-limit is at or above the value the previous
// segment reaches at its vertex, as Bits computes it there.
func checkNondecreasing(t *testing.T, name string, f *Flat) {
	t.Helper()
	for i := range f.ts {
		if f.ss[i] < 0 {
			t.Fatalf("%s: segment %d has slope %v", name, i, f.ss[i])
		}
		if i == 0 {
			continue
		}
		if end := endAt(f.ts, f.vs, f.ss, i-1, f.ts[i]); f.vs[i] < end {
			t.Fatalf("%s: right-limit %v at vertex %d (t = %v) below the previous segment's end %v", name, f.vs[i], i, f.ts[i], end)
		}
	}
}

func checkMinFlats(t *testing.T, a, b *Flat, horizon float64, pts []float64) {
	t.Helper()
	const minUlps = 8 * 0x1p-52
	m, err := NewMin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f := Flatten(m, horizon)
	if f == nil {
		t.Fatalf("Flatten(Min) of two flats over %v and %v s returned nil", a.horizon, b.horizon)
	}
	if f.horizon > horizon {
		t.Fatalf("window %v reaches past the horizon %v", f.horizon, horizon)
	}
	if math.Float64bits(f.LongTermRate()) != math.Float64bits(m.LongTermRate()) {
		t.Fatalf("LongTermRate %v, the chain's is %v", f.LongTermRate(), m.LongTermRate())
	}
	for i := 1; i < len(f.ts); i++ {
		if !(f.ts[i] > f.ts[i-1]) {
			t.Fatalf("vertex %d at %v does not follow %v", i, f.ts[i], f.ts[i-1])
		}
	}
	checkNondecreasing(t, "Flatten(Min)", f)
	minAt := func(pt float64) float64 { return min(a.Bits(pt), b.Bits(pt)) }
	for _, pt := range pts {
		got, want := f.Bits(pt), minAt(pt)
		switch {
		case pt > f.horizon:
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Bits(%v) = %v beyond the window, the operands' minimum is %v", pt, got, want)
			}
			continue
		case pt > min(a.horizon, b.horizon):
			// Past an operand's window Flatten lowers its tail afresh, a
			// staircase whose edges may stand a rounding off the chain's.
			if lo, hi := minAt(pt-sumEdgeSlack), minAt(pt+sumEdgeSlack); got < lo*(1-minUlps) || got > hi+units.RelTol*hi+units.Eps {
				t.Fatalf("Bits(%v) = %v past an operand's window, the operands' minimum is between %v and %v around it", pt, got, lo, hi)
			}
			continue
		}
		// Below the smallest normal float a value has fewer significant bits
		// than minUlps resolves: there the floor is that float.
		if want-got > want*minUlps+0x1p-1022 {
			t.Fatalf("Bits(%v) = %v dips below the operands' minimum %v", pt, got, want)
		}
		if got > want+units.RelTol*want+units.Eps {
			t.Fatalf("Bits(%v) = %v above the operands' minimum %v", pt, got, want)
		}
	}
}

// TestMinFlatsTable: the Min rule over every pair of lowered cases, unequal
// windows included, at dense points and around every vertex of the result's
// operands.
func TestMinFlatsTable(t *testing.T) {
	cases := flatCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(11))
	for i, na := range names {
		for j, nb := range names {
			ha, hb := flatTestHorizon, flatTestHorizon
			if (i+j)%3 == 1 {
				hb /= 2
			}
			a, b := Flatten(cases[na], ha), Flatten(cases[nb], hb)
			pts := []float64{hb, flatTestHorizon, 1.5 * flatTestHorizon}
			for k := 0; k < 200; k++ {
				pts = append(pts, rng.Float64()*1.25*flatTestHorizon)
			}
			for _, f := range []*Flat{a, b} {
				for _, v := range f.ts {
					pts = append(pts, v, math.Nextafter(v, 0), math.Nextafter(v, 1), v+1e-7)
				}
			}
			checkMinFlats(t, a, b, flatTestHorizon, pts)
		}
	}
}

// FuzzMinFlats drives the Min rule with two fuzzed member chains (the decoder
// of FuzzWorkspaceSum: every source kind, behind quantization and capped or
// uncapped delays, windows truncated by the segment cap), lowered over the
// analyzer's window, in both operand orders, at fuzzed points inside and
// beyond the window and at the operands' own vertices. The result's vertices
// are nondecreasing (checkNondecreasing).
func FuzzMinFlats(f *testing.F) {
	const horizon = 0.025
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &sumFuzzInput{b: data}
		var flats []*Flat
		for len(flats) < 2 {
			d := r.member()
			if d == nil {
				return
			}
			fl := Flatten(d, horizon)
			if fl == nil {
				// A delay past a truncated window leaves nothing to lower.
				return
			}
			flats = append(flats, fl)
		}
		a, b := flats[0], flats[1]
		pts := []float64{horizon / 2, horizon, 1.5 * horizon}
		for i := 0; i < 24; i++ {
			pts = append(pts, r.frac()*2*horizon)
		}
		for i := 0; i < 8; i++ {
			v := a.ts[int(r.byte())%len(a.ts)]
			w := b.ts[int(r.byte())%len(b.ts)]
			pts = append(pts, v, math.Nextafter(v, 1), w, math.Nextafter(w, 1))
		}
		checkMinFlats(t, a, b, horizon, pts)
		checkMinFlats(t, b, a, horizon, pts)
	})
}

// TestSumFlatsMatchesAggregate: the O(n+m) merge equals member-wise summation.
func TestSumFlatsMatchesAggregate(t *testing.T) {
	cases := flatCases(t)
	members := []Descriptor{cases["periodic"], cases["dual"], cases["quantized"], cases["cbr"]}
	agg := NewAggregate(members...)
	flats := make([]*Flat, len(members))
	for i, m := range members {
		if flats[i] = Flatten(m, flatTestHorizon); flats[i] == nil {
			t.Fatalf("member %d failed to flatten", i)
		}
	}
	sum := SumFlats(agg, flats...)
	if sum == nil {
		t.Fatal("SumFlats returned nil")
	}
	rng := rand.New(rand.NewSource(3))
	checkAgreement(t, "sum", agg, sum, probePoints(agg, flatTestHorizon, rng))
}

// TestMergeLinearClipsToSharedHorizon: the merge result covers only the
// window both operands cover exactly; the tail serves the rest.
func TestMergeLinearClipsToSharedHorizon(t *testing.T) {
	cases := flatCases(t)
	a := Flatten(cases["periodic"], flatTestHorizon)
	b := Flatten(cases["dual"], flatTestHorizon/2)
	dst := &Flat{}
	SumInto(dst, a, b)
	if got := dst.Horizon(); got != flatTestHorizon/2 {
		t.Fatalf("merged horizon %v, want %v", got, flatTestHorizon/2)
	}
	// Beyond the shared horizon the tail aggregate answers, still exactly.
	pt := flatTestHorizon * 0.75
	want := cases["periodic"].Bits(pt) + cases["dual"].Bits(pt)
	if got := dst.Bits(pt); !units.WithinRel(got, want, units.RelTol) {
		t.Fatalf("tail Bits(%v)=%v want %v", pt, got, want)
	}
}

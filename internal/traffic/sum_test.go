package traffic

import (
	"math"
	"slices"
	"testing"

	"fafnet/internal/units"
)

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sumBitsAt is the member-wise sum at one point, left to right from zero.
func sumBitsAt[D Descriptor](members []D, pt float64) float64 {
	var sum float64
	for _, m := range members {
		sum += m.Bits(pt)
	}
	return sum
}

// flatSnapshot is what a member flat reads like before a Sum: its arrays and
// its values at the check points (beyond its window those go through its
// tail, so a replaced tail shows too).
type flatSnapshot struct {
	ts, vs, ss   []float64
	horizon, rho float64
	bits         []float64
}

func snapshotFlat(f *Flat, pts []float64) flatSnapshot {
	s := flatSnapshot{ts: slices.Clone(f.ts), vs: slices.Clone(f.vs), ss: slices.Clone(f.ss), horizon: f.horizon, rho: f.rho}
	for _, pt := range pts {
		s.bits = append(s.bits, f.Bits(pt))
	}
	return s
}

func (s flatSnapshot) check(t *testing.T, name string, f *Flat, pts []float64) {
	t.Helper()
	if !sameBits(f.ts, s.ts) || !sameBits(f.vs, s.vs) || !sameBits(f.ss, s.ss) ||
		math.Float64bits(f.horizon) != math.Float64bits(s.horizon) || math.Float64bits(f.rho) != math.Float64bits(s.rho) {
		t.Fatalf("%s: a Sum rewrote the member's arrays", name)
	}
	for i, pt := range pts {
		if got := f.Bits(pt); math.Float64bits(got) != math.Float64bits(s.bits[i]) {
			t.Fatalf("%s: Bits(%v) = %v after a Sum, %v before", name, pt, got, s.bits[i])
		}
	}
}

// sumEdgeSlack is how far in time the chain comparison of checkWorkspaceSum
// looks to either side of a point. A lowered staircase places each edge where
// the chain's snapped ⌈·⌉ and ⌊·⌋ first round over, computed once per edge in
// floating point; a chain evaluates the snap at the point itself. Within a
// rounding of an edge the two may stand on different steps, and both are
// right. The envelopes are non-decreasing, so the chain values a nanosecond
// before and after bracket every reading that is not a defect.
const sumEdgeSlack = 1e-9

// checkWorkspaceSum holds w.Sum(flats) to the four properties of the one
// remaining sum, flats[i] being chains[i] lowered:
//
//   - it is SumFlats' array, vertex for vertex and bit for bit, in memory of
//     the workspace's own, and nondecreasing, as every member is;
//   - its long-term rate is the members' sum;
//   - at every point it agrees with the member-wise sum of the flats — to
//     units.RelTol inside the shared window, exactly beyond it, where the
//     members-union tail is that very sum;
//   - and with the member-wise sum of the chains, up to sumEdgeSlack in time.
func checkWorkspaceSum(t *testing.T, w *Workspace, chains []Descriptor, flats []*Flat, pts []float64) {
	t.Helper()
	got := w.Sum(flats)
	want := SumFlats(zeroDesc{}, flats...)
	if got == nil || want == nil {
		t.Fatalf("Sum of %d members: %v, SumFlats %v", len(flats), got, want)
	}
	if !sameBits(got.ts, want.ts) || !sameBits(got.vs, want.vs) || !sameBits(got.ss, want.ss) ||
		math.Float64bits(got.horizon) != math.Float64bits(want.horizon) {
		t.Fatalf("Sum of %d members differs from SumFlats: %d vertices over %v s against %d over %v s",
			len(flats), len(got.ts), got.horizon, len(want.ts), want.horizon)
	}
	checkNondecreasing(t, "Sum", got)
	for i, f := range flats {
		checkNondecreasing(t, "member", f)
		if got == f || &got.ts[0] == &f.ts[0] || &got.vs[0] == &f.vs[0] || &got.ss[0] == &f.ss[0] {
			t.Fatalf("Sum of %d members shares memory with member %d", len(flats), i)
		}
	}
	var rho float64
	for _, f := range flats {
		rho += f.LongTermRate()
	}
	if math.Float64bits(got.LongTermRate()) != math.Float64bits(rho) {
		t.Fatalf("LongTermRate %v, the members sum to %v", got.LongTermRate(), rho)
	}
	for _, pt := range pts {
		v := got.Bits(pt)
		members := sumBitsAt(flats, pt)
		if pt > got.horizon {
			if math.Float64bits(v) != math.Float64bits(members) {
				t.Fatalf("Bits(%v) = %v beyond the window, the members sum to %v", pt, v, members)
			}
		} else if !units.WithinRel(v, members, units.RelTol) {
			t.Fatalf("Bits(%v) = %v inside the window, the members sum to %v", pt, v, members)
		}
		lo, hi := sumBitsAt(chains, pt-sumEdgeSlack), sumBitsAt(chains, pt+sumEdgeSlack)
		if !(v > lo || units.WithinRel(v, lo, units.RelTol)) || !(v < hi || units.WithinRel(v, hi, units.RelTol)) {
			t.Fatalf("Bits(%v) = %v, the member chains sum to between %v and %v around it", pt, v, lo, hi)
		}
	}
}

// TestWorkspaceSumMatchesSumFlats: the workspace fold is SumFlats for one to
// eight members of every lowering rule and of unequal windows, in both
// orders, and no member reads differently once later sums have overwritten
// the arrays an earlier one was built in.
func TestWorkspaceSumMatchesSumFlats(t *testing.T) {
	cases := flatCases(t)
	names := []string{"delayed", "periodic", "dual", "quantized", "cbr", "twoStage", "delayedCap", "leaky"}
	var chains []Descriptor
	var flats []*Flat
	for i, name := range names {
		// Unequal windows: the first member is lowered over 20 ms, and every
		// third over half the horizon.
		h := flatTestHorizon
		switch {
		case i == 0:
			h = 20e-3
		case i%3 == 2:
			h /= 2
		}
		f := Flatten(cases[name], h)
		if f == nil {
			t.Fatalf("%s failed to flatten", name)
		}
		chains, flats = append(chains, cases[name]), append(flats, f)
	}
	var pts []float64
	for i := 1; i <= 240; i++ {
		pts = append(pts, float64(i)*flatTestHorizon/160)
	}
	snaps := make([]flatSnapshot, len(flats))
	for i, f := range flats {
		snaps[i] = snapshotFlat(f, pts)
	}

	var ws Workspace
	for k := 1; k <= len(flats); k++ {
		checkWorkspaceSum(t, &ws, chains[:k], flats[:k], pts)
		checkWorkspaceSum(t, &ws, chains[len(chains)-k:], flats[len(flats)-k:], pts)
	}
	for i, f := range flats {
		snaps[i].check(t, names[i], f, pts)
	}
	if ws.Sum(nil) != nil || ws.Sum([]*Flat{flats[0], nil}) != nil {
		t.Fatal("Sum of no members, or of a nil member, must be nil")
	}
}

// TestMembersSum holds the one members-sum type, Aggregate, to its members
// over lists that mix flats, raw chains and a Min: its Bits and LongTermRate
// are the in-order member sums bit for bit. A workspace sum of flat members
// carries the same type as its tail, by pointer.
func TestMembersSum(t *testing.T) {
	pts := make([]float64, 0, 240)
	for i := 1; i <= 240; i++ {
		pts = append(pts, float64(i)*flatTestHorizon/160)
	}
	cases := flatCases(t)
	flat := func(name string) *Flat {
		f := Flatten(cases[name], flatTestHorizon)
		if f == nil {
			t.Fatalf("%s failed to flatten", name)
		}
		return f
	}
	var many []Descriptor
	for i := 0; i < 9; i++ {
		many = append(many, flat("periodic"), cases["dual"])
	}
	table := []struct {
		name    string
		members []Descriptor
	}{
		{"empty", nil},
		{"flats", []Descriptor{flat("periodic"), flat("dual"), flat("quantized"), flat("twoStage")}},
		{"raw chains", []Descriptor{cases["periodic"], cases["leaky"], cases["delayedMin"], cases["cbr"]}},
		{"mixed", []Descriptor{flat("dual"), flat("twoStage"), cases["quantized"], cases["min"], cases["cbr"]}},
		{"exact duplicates", []Descriptor{flat("dual"), flat("dual"), cases["dual"], cases["dual"]}},
		{"eighteen members", many},
	}
	for _, c := range table {
		agg := NewAggregate(c.members...)
		for _, pt := range pts {
			if got, want := agg.Bits(pt), sumBitsAt(c.members, pt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Bits(%v) = %v, the in-order member sum %v", c.name, pt, got, want)
			}
		}
		var rho float64
		for _, m := range c.members {
			rho += m.LongTermRate()
		}
		if got := agg.LongTermRate(); math.Float64bits(got) != math.Float64bits(rho) {
			t.Errorf("%s: LongTermRate = %v, the in-order member sum %v", c.name, got, rho)
		}

		var flats []*Flat
		for _, m := range c.members {
			if f, ok := m.(*Flat); ok {
				flats = append(flats, f)
			}
		}
		if len(flats) == 0 || len(flats) < len(c.members) {
			continue
		}
		var ws Workspace
		sum := ws.Sum(flats)
		if tail, ok := sum.Tail().(*Aggregate); !ok || tail != &ws.sumTail {
			t.Fatalf("%s: the workspace sum's tail is %T, want the workspace's *Aggregate", c.name, sum.Tail())
		}
	}
}

// sumFuzzInput reads the fuzzer's bytes as small numbers; an exhausted input
// reads as zeros.
type sumFuzzInput struct{ b []byte }

func (r *sumFuzzInput) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// frac reads two bytes as a fraction in [0, 1).
func (r *sumFuzzInput) frac() float64 {
	hi, lo := r.byte(), r.byte()
	return float64(uint16(hi)<<8|uint16(lo)) / (1 << 16)
}

// member decodes one member chain: the low two bits of the first byte pick
// one of the four lowerable source kinds, whose parameters follow; bits 4 and
// 5 put it behind a Quantized and a Delayed stage (the order of the
// analyzer's stage chains), bit 6 gives the delay a rate cap. Parameters the
// constructors reject decode to nil.
func (r *sumFuzzInput) member() Descriptor {
	const peak = 100e6
	kind := r.byte()
	var d Descriptor
	var err error
	switch kind & 3 {
	case 0:
		d, err = NewCBR(1e5 + r.frac()*2e7)
	case 1:
		sigma, rho := r.frac()*1e5, 1e6+r.frac()*1e7
		var burstPeak float64
		if kind&4 != 0 {
			burstPeak = rho * (1 + 20*r.frac())
		}
		d, err = NewLeakyBucket(sigma, rho, burstPeak)
	case 2:
		// Periods from 1 µs to 10 ms: the short end overruns maxFlatSegments
		// inside the window, so the lowering truncates its horizon.
		p := 1e-6 * math.Pow(10, 4*r.frac())
		d, err = NewPeriodic(r.frac()*p*peak, p, peak)
	case 3:
		p1 := 1e-4 * math.Pow(10, 2*r.frac())
		n := float64(1 + r.byte()%16)
		p2 := p1 / n
		c2 := r.frac() * p2 * peak
		d, err = NewDualPeriodic(c2*(1+r.frac()*(n-1)), p1, c2, p2, peak)
	}
	if err == nil && kind&0x10 != 0 {
		q := 1000 + r.frac()*5e4
		d, err = NewQuantized(d, q, q*(1+r.frac()/4))
	}
	if err == nil && kind&0x20 != 0 {
		var capBps float64
		if kind&0x40 != 0 {
			capBps = 135e6
		}
		d, err = NewDelayed(d, r.frac()*5e-3, capBps)
	}
	if err != nil {
		return nil
	}
	return d
}

// members decodes 1–8 member chains and lowers them over horizon; chains
// the constructors reject, and delays past a truncated window (which leave
// nothing to lower), are left out.
func (r *sumFuzzInput) members(horizon float64) (chains []Descriptor, flats []*Flat) {
	for n := 1 + int(r.byte()%8); n > 0; n-- {
		d := r.member()
		if d == nil {
			continue
		}
		if fl := Flatten(d, horizon); fl != nil {
			chains, flats = append(chains, d), append(flats, fl)
		}
	}
	return chains, flats
}

// FuzzWorkspaceSum drives the one remaining sum: 1–8 fuzzed member chains,
// lowered over the analyzer's window, summed on one workspace twice — first
// all of them, then a rotation of a subset — with both results held to
// checkWorkspaceSum at fuzzed points inside and beyond the window, and every
// member of the first call read again after the second.
func FuzzWorkspaceSum(f *testing.F) {
	const horizon = 0.025
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &sumFuzzInput{b: data}
		chains, flats := r.members(horizon)
		if len(flats) == 0 {
			return
		}
		rot, keep := int(r.byte())%len(flats), 1+int(r.byte())%len(flats)
		pts := []float64{horizon / 2, horizon, 1.5 * horizon}
		for i := 0; i < 16; i++ {
			pts = append(pts, r.frac()*2*horizon)
		}
		snaps := make([]flatSnapshot, len(flats))
		for i, fl := range flats {
			snaps[i] = snapshotFlat(fl, pts)
		}

		var ws Workspace
		checkWorkspaceSum(t, &ws, chains, flats, pts)
		chains2 := append(slices.Clone(chains[rot:]), chains[:rot]...)[:keep]
		flats2 := append(slices.Clone(flats[rot:]), flats[:rot]...)[:keep]
		checkWorkspaceSum(t, &ws, chains2, flats2, pts)
		for i, fl := range flats {
			snaps[i].check(t, "member", fl, pts)
		}
	})
}

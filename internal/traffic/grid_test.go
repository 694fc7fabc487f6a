package traffic

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// gridCase is one grid-assembly input: a descriptor chain, a horizon, the
// uniform resolution and the extras, all derived from a handful of scalars
// so the fuzzer can drive it.
type gridCase struct {
	d       Descriptor
	horizon float64
	n       int
	extras  [][]float64
	// limit, when nonzero, also checks the grid stopped there against the
	// full grid cut there. Its magnitude picks a fraction of the horizon (up
	// to a tenth beyond it); a negative value snaps that to the nearest grid
	// point, or one ulp to either side of it.
	limit float64
}

// randomSource draws one of the three source models with valid parameters.
func randomSource(r *rand.Rand) Descriptor {
	switch r.Intn(4) {
	case 0:
		p := (1 + 19*r.Float64()) * 1e-3
		c := (1 + 99*r.Float64()) * 1e3
		return Periodic{C: c, P: p, PeakBps: c / p * (1 + 9*r.Float64())}
	case 1:
		rho := (1 + 9*r.Float64()) * 1e6
		return LeakyBucket{Sigma: r.Float64() * 1e4, Rho: rho, PeakBps: rho * (1 + 4*r.Float64())}
	default:
		// Whole-multiple period ratios (the paper's 10 ms / 1 ms among them)
		// exercise the seams; the others the plain enumeration.
		p2 := float64(1+r.Intn(4)) * 1e-3
		ratio := float64(2 + r.Intn(12))
		if r.Intn(3) == 0 {
			ratio += r.Float64()
		}
		p1 := ratio * p2
		c2 := (1 + 19*r.Float64()) * 1e3
		c1 := c2 * (1 + r.Float64()*(ratio-1))
		return DualPeriodic{C1: c1, P1: p1, C2: c2, P2: p2, PeakBps: c2 / p2 * (1 + 99*r.Float64())}
	}
}

// randomChain wraps a source (or an aggregate of chains) in up to three
// transforms, and sometimes lowers the result to a *Flat.
func randomChain(r *rand.Rand, depth int) Descriptor {
	var d Descriptor
	if depth > 0 && r.Intn(4) == 0 {
		members := make([]Descriptor, 2+r.Intn(3))
		for i := range members {
			members[i] = randomChain(r, depth-1)
		}
		d = NewAggregate(members...)
	} else {
		d = randomSource(r)
	}
	for k := r.Intn(4); k > 0; k-- {
		switch r.Intn(3) {
		case 0:
			capBps := 0.0
			if r.Intn(2) == 0 {
				capBps = 100e6 * (1 + r.Float64())
			}
			d = Delayed{Inner: d, Delay: r.Float64() * 5e-3, CapBps: capBps}
		case 1:
			q := (1 + 7*r.Float64()) * 1e3
			d = Quantized{Inner: d, QuantumBits: q, OutBits: q * (1 + 0.2*r.Float64())}
		default:
			d = RateCapped{Inner: d, CapBps: 100e6 * (1 + r.Float64())}
		}
	}
	if r.Intn(3) == 0 {
		if f := Flatten(d, 0.025); f != nil {
			return f
		}
	}
	return d
}

// newGridCase derives a case from fuzzable scalars. horizon is folded into
// [1 ms, 2 s]; step > 0 adds bracketed multiples of it the way the MAC scan
// adds TTRT multiples, zeroPlus the t→0⁺ point, and loose a list with points
// outside the horizon, drawn unsorted and sorted (extras are ascending by
// precondition); limit is gridCase.limit.
func newGridCase(seed int64, horizon float64, n uint8, step float64, zeroPlus, loose bool, limit float64) gridCase {
	r := rand.New(rand.NewSource(seed))
	c := gridCase{d: randomChain(r, 2), n: int(n)}
	if !math.IsNaN(limit) && !math.IsInf(limit, 0) {
		c.limit = limit
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		horizon = 0.016
	}
	c.horizon = 1e-3 + math.Mod(math.Abs(horizon), 2-1e-3)
	if step = math.Abs(step); step >= 1e-4 && step <= 1 {
		var mult []float64
		for t := step; t <= c.horizon+1e-12 && len(mult) < 3000; t += step {
			mult = append(mult, t-GridNudge, t, t+GridNudge)
		}
		c.extras = append(c.extras, mult)
	}
	if zeroPlus {
		c.extras = append(c.extras, []float64{GridNudge})
	}
	if loose {
		pts := make([]float64, 1+r.Intn(6))
		for i := range pts {
			pts[i] = (r.Float64()*1.2 - 0.1) * c.horizon
		}
		sort.Float64s(pts)
		c.extras = append(c.extras, pts)
	}
	return c
}

// check compares the one-pass builder with the seed formulation for exact
// slice equality. A *Flat input is enumerated through its tail chain each
// time, unless it is the member of an Aggregate, whose union fills its
// cache on the first run; later runs then read that cache.
func (c gridCase) check(t *testing.T, ws *Workspace) {
	t.Helper()
	cold := slices.Clone(ws.Grid(c.d, c.horizon, c.n, c.extras...))
	want := oracleMergeGrids(c.horizon, append([][]float64{oracleGrid(c.d, c.horizon, c.n)}, c.extras...)...)
	got := ws.Grid(c.d, c.horizon, c.n, c.extras...)
	if !slices.Equal(cold, want) || !slices.Equal(got, want) {
		t.Fatalf("grid of %v at horizon %v, n=%d, %d extras: %d points cold, %d warm, oracle %d; first difference at %d",
			c.d, c.horizon, c.n, len(c.extras), len(cold), len(got), len(want), firstDiff(cold, got, want))
	}
	ws.Put(got)
	if c.limit != 0 {
		c.checkPrefix(t, ws, want, c.resolveLimit(want))
	}
}

// resolveLimit turns the fuzzable limit into a stop inside (or just beyond)
// the horizon.
func (c gridCase) resolveLimit(full []float64) float64 {
	frac := math.Mod(math.Abs(c.limit), 1.1)
	if c.limit > 0 || len(full) == 0 {
		return frac * c.horizon
	}
	p := full[min(int(frac*float64(len(full))), len(full)-1)]
	switch int(math.Abs(c.limit)*1e6) % 3 {
	case 1:
		return math.Nextafter(p, 0)
	case 2:
		return math.Nextafter(p, math.Inf(1))
	}
	return p
}

// checkPrefix holds the grid stopped at limit to the full grid (full, as the
// oracle assembled it) cut at its first point beyond limit.
func (c gridCase) checkPrefix(t *testing.T, ws *Workspace, full []float64, limit float64) {
	t.Helper()
	if limit <= 0 {
		return
	}
	limit = min(limit, c.horizon)
	want := full[:sort.Search(len(full), func(i int) bool { return full[i] > limit })]
	got := ws.grid(c.d, c.horizon, limit, max(c.n, 1), c.extras)
	if !slices.Equal(got, want) {
		t.Fatalf("grid of %v at horizon %v, n=%d, %d extras, stopped at %v: %d points, the full grid cut there %d; first difference at %d",
			c.d, c.horizon, c.n, len(c.extras), limit, len(got), len(want), firstDiff(got, got, want))
	}
	ws.Put(got)
}

func firstDiff(a, b, want []float64) int {
	for i, w := range want {
		if i >= len(a) || i >= len(b) || a[i] != w || b[i] != w {
			return i
		}
	}
	return len(want)
}

func TestGridMatchesOracle(t *testing.T) {
	var ws Workspace
	horizons := []float64{1e-3, 16e-3, 50e-3, 0.2, 0.76, 2}
	for seed := int64(1); seed <= 400; seed++ {
		h := horizons[seed%int64(len(horizons))]
		newGridCase(seed, h, uint8(seed*37), 8e-3, seed%2 == 0, seed%5 == 0, float64(seed)*0.0371).check(t, &ws)
		newGridCase(seed, h*0.77, 128, 0, seed%3 == 0, false, -float64(seed)*0.0173).check(t, &ws)
	}
}

// TestGridPrefixAtEveryPoint stops the assembly on, one ulp below and one ulp
// above every point of the full grid — vertices and their brackets, bracketed
// multiples, uniform points, the t→0⁺ point — and wants the full grid cut
// there each time: the shapes the server analyses assemble (the paper's
// source behind a MAC, conversion and ports, as a chain, lowered, and summed
// into a port aggregate) and random chains. The exported wrapper is held to
// the same cut, with a limit beyond the horizon meaning the horizon, and with
// its extras listed only up to the limit.
func TestGridPrefixAtEveryPoint(t *testing.T) {
	src := DualPeriodic{C1: 50e3, P1: 10e-3, C2: 10e3, P2: 1e-3, PeakBps: 100e6}
	chain := Delayed{
		Inner:  Quantized{Inner: Delayed{Inner: src, Delay: 8e-3, CapBps: 100e6}, QuantumBits: 4000, OutBits: 4240},
		Delay:  1.5e-3,
		CapBps: 140e6,
	}
	flat := Flatten(chain, 0.025)
	other := Flatten(Delayed{Inner: Quantized{Inner: Delayed{Inner: src, Delay: 6.3e-3, CapBps: 100e6}, QuantumBits: 4000, OutBits: 4240}, Delay: 0.4e-3, CapBps: 140e6}, 0.025)
	if flat == nil || other == nil {
		t.Fatal("the chain has no lowering")
	}
	cases := []gridCase{
		{d: src, horizon: 0.016, n: 128},
		{d: chain, horizon: 0.016, n: 128},
		{d: flat, horizon: 0.016, n: 128},
		{d: flat, horizon: 0.064, n: 128}, // beyond the flat's window
		{d: SumFlats(NewAggregate(flat, other), flat, other), horizon: 0.016, n: 128},
		{d: chain, horizon: 0.08, n: 160, extras: [][]float64{bracketedMultiples(8e-3, 0.08), {GridNudge}}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, newGridCase(seed, 0.016, 128, 8e-3*float64(seed%2), seed%3 == 0, false, 0))
	}
	var ws Workspace
	for _, c := range cases {
		full := oracleMergeGrids(c.horizon, append([][]float64{oracleGrid(c.d, c.horizon, c.n)}, c.extras...)...)
		for _, p := range full {
			for _, limit := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1))} {
				c.checkPrefix(t, &ws, full, limit)
			}
		}
		for _, limit := range []float64{c.horizon / 8, c.horizon, 2 * c.horizon} {
			want := full[:sort.Search(len(full), func(i int) bool { return full[i] > limit })]
			// The extras cut at the limit: points beyond it change nothing.
			var cut [][]float64
			for _, e := range c.extras {
				cut = append(cut, e[:sort.SearchFloat64s(e, math.Nextafter(limit, math.Inf(1)))])
			}
			if got := ws.GridPrefix(c.d, c.horizon, c.n, limit, cut...); !slices.Equal(got, want) {
				t.Fatalf("GridPrefix of %v at horizon %v to %v, %d extras: %d points, the full grid cut there %d", c.d, c.horizon, limit, len(c.extras), len(got), len(want))
			}
		}
	}
	if got := ws.GridPrefix(src, 0.016, 128, 0); got != nil {
		t.Errorf("GridPrefix to 0 = %v, want nothing", got)
	}
}

// bracketedMultiples lists k·step up to limit, each bracketed, the way the
// MAC scan adds the TTRT multiples.
func bracketedMultiples(step, limit float64) []float64 {
	var mult []float64
	for t := step; t <= limit+1e-12; t += step {
		mult = append(mult, t-GridNudge, t, t+GridNudge)
	}
	return mult
}

// pointSet is a descriptor that advertises exactly the given breakpoints.
type pointSet []float64

func (pointSet) Bits(float64) float64  { return 0 }
func (pointSet) LongTermRate() float64 { return 0 }
func (p pointSet) AppendBreakpoints(dst []float64, _ float64) []float64 {
	return append(dst, p...)
}

// TestGridDedupStages pins the order of the two dedup passes, which random
// inputs almost never separate: the descriptor's own points are deduplicated
// among themselves before the extras join. Here x+0.7·Eps loses to x in the
// first pass, and x then loses to the extra x−0.6·Eps in the second — a single
// pass over the union would have kept x+0.7·Eps instead.
func TestGridDedupStages(t *testing.T) {
	const x = 1e-3
	c := gridCase{
		d:       pointSet{x, x + 0.7e-12},
		horizon: 4e-3,
		n:       3,
		extras:  [][]float64{{x - 0.6e-12}},
	}
	var ws Workspace
	c.check(t, &ws)
	got := ws.Grid(c.d, c.horizon, c.n, c.extras...)
	if i := sort.SearchFloat64s(got, x-0.6e-12); got[i] != x-0.6e-12 || got[i+1] != x+GridNudge {
		t.Errorf("grid around x: %v; want the extra followed directly by x+GridNudge", got[i:i+2])
	}
}

// FuzzGridAssembly is the differential fuzz target of grid assembly: the
// one-pass k-way assembly against the seed tree's two merges,
// oracleMergeGrids(h, oracleGrid(d, h, n), extras…), for exact equality —
// and, stopped at a fuzzed limit, against that grid cut there.
func FuzzGridAssembly(f *testing.F) {
	f.Add(int64(1), 0.016, uint8(160), 8e-3, true, false, 0.125)
	f.Add(int64(2), 0.76, uint8(160), 4e-3, true, false, -0.5)
	f.Add(int64(3), 0.032, uint8(128), 0.0, true, false, -0.071234)
	f.Add(int64(4), 2.0, uint8(0), 1e-3, false, true, 1.05)
	f.Add(int64(5), 1e-3, uint8(255), 5e-4, true, true, -0.999998)
	var ws Workspace
	f.Fuzz(func(t *testing.T, seed int64, horizon float64, n uint8, step float64, zeroPlus, loose bool, limit float64) {
		newGridCase(seed, horizon, n, step, zeroPlus, loose, limit).check(t, &ws)
	})
}

func TestInsertGridPointMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var ws Workspace
	for trial := 0; trial < 500; trial++ {
		c := newGridCase(int64(trial), 0.016, 128, 0, false, false, 0)
		grid := ws.Grid(c.d, c.horizon, c.n)
		// Every prefix the FIFO-port scan may cut, and points that land on,
		// beside and between grid points.
		prefix := grid[:1+r.Intn(len(grid))]
		p := GridNudge
		switch trial % 4 {
		case 1:
			p = prefix[r.Intn(len(prefix))] + (r.Float64()-0.5)*3e-12
		case 2:
			p = r.Float64() * prefix[len(prefix)-1] * 1.1
		}
		want := oracleMergeGrids(prefix[len(prefix)-1], prefix, []float64{p})
		if got := InsertGridPoint(prefix, p); !slices.Equal(got, want) {
			t.Fatalf("InsertGridPoint(%d points, %v): %d points, oracle %d", len(prefix), p, len(got), len(want))
		}
		ws.Put(grid)
	}
}

// seedDualPeriodicBreakpoints is DualPeriodic's enumeration as the seed tree
// had it: every k·P1 seam comes out twice, one ulp apart.
func seedDualPeriodicBreakpoints(s DualPeriodic, horizon float64) []float64 {
	var pts []float64
	burst := s.C2 / s.PeakBps
	perP1 := int(math.Floor(s.P1/s.P2+1e-9)) + 1
	for k := 0; ; k++ {
		base := float64(k) * s.P1
		if base > horizon || len(pts) > maxBreakpoints {
			break
		}
		for j := 0; j < perP1; j++ {
			t := base + float64(j)*s.P2
			if t > base+s.P1 || t > horizon {
				break
			}
			pts = pushAscending(pushAscending(pts, 0, t), 0, t+burst)
		}
	}
	return pts
}

type seedDual struct{ DualPeriodic }

func (s seedDual) AppendBreakpoints(dst []float64, h float64) []float64 {
	return append(dst, seedDualPeriodicBreakpoints(s.DualPeriodic, h)...)
}

// TestDualPeriodicSeamsEmittedOnce is the regression test of the seam bug:
// the bracket expansion of the paper's source must be ascending as emitted —
// no two breakpoints within 2·GridNudge — and the grids must be the ones the
// doubled seams produced.
func TestDualPeriodicSeamsEmittedOnce(t *testing.T) {
	src := DualPeriodic{C1: 50e3, P1: 10e-3, C2: 10e3, P2: 1e-3, PeakBps: 100e6}
	var ws Workspace
	// 1.9 s and beyond are past the maxBreakpoints cut, which must fall on
	// the same period as before for the grids to stay put.
	for _, h := range []float64{16e-3, 50e-3, 0.2, 0.76, 1.9, 2.228, 5.7} {
		raw := src.AppendBreakpoints(nil, h)
		var brackets []float64
		for _, b := range raw {
			brackets = append(brackets, b-GridNudge, b, b+GridNudge)
		}
		if !sort.Float64sAreSorted(brackets) {
			t.Errorf("horizon %v: bracket expansion of %d breakpoints is not ascending", h, len(raw))
		}
		seed := seedDualPeriodicBreakpoints(src, h)
		if len(seed) <= len(raw) {
			t.Errorf("horizon %v: the seed enumeration has %d points, the fixed one %d: expected doubled seams to go", h, len(seed), len(raw))
		}
		for _, n := range []int{1, 128, 160} {
			got, want := ws.Grid(src, h, n), oracleGrid(seedDual{src}, h, n)
			if !slices.Equal(got, want) {
				t.Errorf("horizon %v, n=%d: grid moved: %d points against %d", h, n, len(got), len(want))
			}
			ws.Put(got)
		}
	}
}

// TestDualPeriodicSubPeriodsCapped holds the sub-period loop to the cap the
// long-period loop honours: a valid source with P1/P2 = 10⁵ used to advertise
// every one of its 10⁵ bursts per long period.
func TestDualPeriodicSubPeriodsCapped(t *testing.T) {
	src, err := NewDualPeriodic(50e3, 10e-3, 0.5, 1e-7, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	raw := src.AppendBreakpoints(nil, 20e-3)
	if len(raw) > maxBreakpoints+2 {
		t.Errorf("%d breakpoints over two long periods, want at most %d", len(raw), maxBreakpoints+2)
	}
	if !sort.Float64sAreSorted(raw) {
		t.Error("capped breakpoints are not ascending")
	}
}

// TestGridAssemblyAllocationFree holds grid assembly at zero allocations on a
// warmed workspace: chain enumeration appends into the workspace's breakpoint
// scratch, the merge writes into a size-class buffer, and Put returns it.
func TestGridAssemblyAllocationFree(t *testing.T) {
	src := DualPeriodic{C1: 50e3, P1: 10e-3, C2: 10e3, P2: 1e-3, PeakBps: 100e6}
	chain := Quantized{Inner: Delayed{Inner: Quantized{Inner: Delayed{Inner: src, Delay: 8e-3, CapBps: 100e6}, QuantumBits: 4e3, OutBits: 4240}, Delay: 1e-3, CapBps: 140e6}, QuantumBits: 4240, OutBits: 4240}
	flat := Flatten(chain, 0.025)
	if flat == nil {
		t.Fatal("chain has no lowering")
	}
	var mult []float64
	for k := 1.0; k*8e-3 <= 0.76; k++ {
		mult = append(mult, k*8e-3-GridNudge, k*8e-3, k*8e-3+GridNudge)
	}
	zp := []float64{GridNudge}
	var ws Workspace
	for _, d := range []Descriptor{src, chain, flat} {
		run := func() { ws.Put(ws.Grid(d, 0.76, 160, mult, zp)) }
		run()
		if avg := testing.AllocsPerRun(50, run); avg != 0 {
			t.Errorf("grid assembly over %T allocates %v times per run on a warmed workspace", d, avg)
		}
	}
}

// BenchmarkGridAssembly times one grid assembly on a warmed workspace at the
// two depths the admission path sees: a FIFO port's first busy-period window
// and a receiver MAC near its stability limit.
func BenchmarkGridAssembly(b *testing.B) {
	src := DualPeriodic{C1: 50e3, P1: 10e-3, C2: 10e3, P2: 1e-3, PeakBps: 100e6}
	var chain Descriptor = Delayed{Inner: Quantized{Inner: Delayed{Inner: src, Delay: 8e-3, CapBps: 100e6}, QuantumBits: 4e3, OutBits: 4240}, Delay: 1e-3, CapBps: 140e6}
	for _, bc := range []struct {
		name    string
		horizon float64
		n       int
	}{{"mux16ms", 16e-3, 128}, {"mac760ms", 0.76, 160}} {
		var mult []float64
		for k := 1.0; k*8e-3 <= bc.horizon; k++ {
			mult = append(mult, k*8e-3-GridNudge, k*8e-3, k*8e-3+GridNudge)
		}
		zp := []float64{GridNudge}
		b.Run(bc.name, func(b *testing.B) {
			var ws Workspace
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ws.Put(ws.Grid(chain, bc.horizon, bc.n, mult, zp))
			}
		})
		b.Run(bc.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gridSink = oracleMergeGrids(bc.horizon, oracleGrid(chain, bc.horizon, bc.n), mult, zp)
			}
		})
	}
}

var gridSink []float64

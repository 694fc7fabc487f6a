package traffic_test

import (
	"testing"

	"fafnet/internal/traffic"
)

// The Descriptor interface annotates Bits and LongTermRate as //fafvet:hotpath,
// so the analyzer proves every implementation allocation-free at build time.
// These regression tests pin the same property at run time for the paths the
// admission probes actually exercise, so a change that defeats the static
// proof's assumptions (e.g. a descriptor built in a way the analyzer never
// sees) still fails CI.

// evalPoints is a fixed set of query intervals spanning sub-burst to
// multi-period horizons.
func evalPoints() []float64 {
	pts := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		pts = append(pts, float64(i)*3.7e-4)
	}
	return pts
}

// TestFusedEnvelopeEvalAllocationFree pins the envelope the analyzer hands
// its port and MAC scans: a realistic stage chain (MAC output shape →
// frame→cell quantization → FIFO port delays), fused and lowered with Flatten
// over the analyzer's 25 ms window exactly as core.evaluation builds it, must
// answer Bits with zero allocations both inside the window (the breakpoint
// array) and beyond it (the fused chain kept as the tail).
func TestFusedEnvelopeEvalAllocationFree(t *testing.T) {
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := traffic.NewQuantized(src, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := traffic.NewDelayed(q, 0.4e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := traffic.NewDelayed(d1, 0.2e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	const window = 0.025
	f := traffic.Flatten(traffic.Fuse(d2), window)
	if f == nil {
		t.Fatal("Flatten returned nil")
	}

	pts := evalPoints()
	if first, last := pts[0], pts[len(pts)-1]; !(first < f.Horizon() && last > f.Horizon()) {
		t.Fatalf("points %v … %v do not straddle the window %v", first, last, f.Horizon())
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			sink += f.Bits(p)
		}
	}); n != 0 {
		t.Errorf("fused, lowered envelope: %v allocs per run, want 0", n)
	}
	_ = sink
}

// TestSourceEvalAllocationFree pins the cold path: the source descriptors
// themselves are pure arithmetic, so even unmemoized evaluation at fresh
// points must not allocate.
func TestSourceEvalAllocationFree(t *testing.T) {
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	pts := evalPoints()
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			sink += src.Bits(p)
		}
	}); n != 0 {
		t.Errorf("dual-periodic source eval: %v allocs per run, want 0", n)
	}
	_ = sink
}

// TestFlatEvalAllocationFree pins the flat point-eval hot path: once lowered,
// a Flat answers in-window Bits queries (binary search + FMA, cursor hint)
// with zero allocations — no memo table needed.
func TestFlatEvalAllocationFree(t *testing.T) {
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := traffic.NewQuantized(src, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := traffic.NewDelayed(q, 0.4e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	f := traffic.Flatten(d1, 64e-3)
	if f == nil {
		t.Fatal("Flatten returned nil")
	}
	pts := evalPoints()
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pts {
			sink += f.Bits(p)
		}
	}); n != 0 {
		t.Errorf("warm flat envelope eval: %v allocs per run, want 0", n)
	}
	_ = sink
}

// TestSumIntoAllocationFree pins the warm sum-merge path: merging into a
// scratch Flat whose arrays (and tail aggregate) were sized by a first call
// must not allocate thereafter.
func TestSumIntoAllocationFree(t *testing.T) {
	a, b := flatPair(t)
	dst := &traffic.Flat{}
	traffic.SumInto(dst, a, b) // sizes the scratch
	if n := testing.AllocsPerRun(100, func() {
		traffic.SumInto(dst, a, b)
	}); n != 0 {
		t.Errorf("warm SumInto: %v allocs per run, want 0", n)
	}
}

// TestWorkspaceSumAllocationFree pins the fold the analyzer runs per port
// analysis — three members, and the one-member copy — and the backlog walk
// over the sum at zero allocations once the workspace's two arrays have
// grown.
func TestWorkspaceSumAllocationFree(t *testing.T) {
	a, b := flatPair(t)
	cbr, err := traffic.NewCBR(4e6)
	if err != nil {
		t.Fatal(err)
	}
	three := []*traffic.Flat{a, b, traffic.Flatten(cbr, 64e-3)}
	var ws traffic.Workspace
	rate := 1.5 * ws.Sum(three).LongTermRate() // sizes the arrays
	if _, _, ok := traffic.Backlog(ws.Sum(three), rate, 16e-3, 8); !ok {
		t.Fatal("no busy period ends inside the sum's window: the case exercises nothing")
	}
	if n := testing.AllocsPerRun(100, func() {
		traffic.Backlog(ws.Sum(three), rate, 16e-3, 8)
		ws.Sum(three[:1])
	}); n != 0 {
		t.Errorf("warm Workspace.Sum: %v allocs per run, want 0", n)
	}
}

// flatPair lowers two harness-shaped envelopes for the merge tests.
func flatPair(t *testing.T) (*traffic.Flat, *traffic.Flat) {
	t.Helper()
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	per, err := traffic.NewPeriodic(48e3, 8e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	a := traffic.Flatten(src, 64e-3)
	b := traffic.Flatten(per, 64e-3)
	if a == nil || b == nil {
		t.Fatal("Flatten returned nil")
	}
	return a, b
}

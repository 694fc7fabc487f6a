package traffic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Every admission probe evaluates envelopes in its inner loops, so the
// evaluation paths must not allocate. These tests pin that at run time: every
// Descriptor implementation, the flat kernels (point evaluation, level
// crossings, the merge and the port walk) and the burst bound the closed-form
// Theorem 1 test stands on.

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
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantized(src, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewDelayed(q, 0.4e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDelayed(d1, 0.2e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	const window = 0.025
	f := Flatten(Fuse(d2), window)
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

// everyDescriptor returns one instance of each Descriptor implementation in
// the package, sources and transforms over paper-scale sources, the flat
// lowering and the summation identity.
func everyDescriptor(t *testing.T) []Descriptor {
	t.Helper()
	dp, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	per, err := NewPeriodic(48e3, 8e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLeakyBucket(1e4, 1e6, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	cbr, err := NewCBR(4e6)
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewDelayed(dp, 0.4e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantized(dp, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRateCapped(dp, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMin(dp, lb)
	if err != nil {
		t.Fatal(err)
	}
	// A window shorter than the evaluation points, so the tail runs too.
	f := Flatten(q, 0.025)
	if f == nil {
		t.Fatal("Flatten returned nil")
	}
	// Two ports' views over it, as the analyzer chains them: the second
	// reads the first, and both answer past their windows from the fused
	// chain.
	v, err := NewView(f, 0.4e-3, 140e6, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	if v, err = NewView(v, 0.2e-3, 140e6, 0.025); err != nil {
		t.Fatal(err)
	}
	return []Descriptor{cbr, per, dp, lb, NewAggregate(dp, per), del, q, rc, m, f, v, zeroDesc{}}
}

// descriptorName is the declared name of d's type, pointer stripped.
func descriptorName(d Descriptor) string {
	rt := reflect.TypeOf(d)
	if rt.Kind() == reflect.Pointer {
		rt = rt.Elem()
	}
	return rt.Name()
}

// TestSourceEvalAllocationFree pins the cold path: every descriptor answers
// Bits at fresh points, LongTermRate and BurstBound with zero allocations.
func TestSourceEvalAllocationFree(t *testing.T) {
	pts := evalPoints()
	for _, d := range everyDescriptor(t) {
		t.Run(descriptorName(d), func(t *testing.T) {
			var sink float64
			if n := testing.AllocsPerRun(100, func() {
				for _, p := range pts {
					sink += d.Bits(p)
				}
				sink += d.LongTermRate() + BurstBound(d)
			}); n != 0 {
				t.Errorf("%T eval: %v allocs per run, want 0", d, n)
			}
			_ = sink
		})
	}
}

// TestEveryDescriptorInAllocTable parses the package's non-test files and
// fails when a type declaring Bits(float64) float64 is missing from
// everyDescriptor, so a new implementation cannot skip the allocation test.
func TestEveryDescriptorInAllocTable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Bits" && fd.Recv != nil && isFloatToFloat(fd.Type) {
					declared = append(declared, receiverTypeName(fd.Recv.List[0].Type))
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no Bits methods found: the scan exercises nothing")
	}
	sort.Strings(declared)
	listed := make(map[string]bool)
	for _, d := range everyDescriptor(t) {
		listed[descriptorName(d)] = true
	}
	for _, name := range declared {
		if !listed[name] {
			t.Errorf("%s declares Bits(float64) float64 but is not in everyDescriptor", name)
		}
	}
}

// isFloatToFloat reports whether a signature is func(float64) float64.
func isFloatToFloat(ft *ast.FuncType) bool {
	isFloat := func(fl *ast.FieldList) bool {
		if fl == nil || len(fl.List) != 1 || len(fl.List[0].Names) > 1 {
			return false
		}
		id, ok := fl.List[0].Type.(*ast.Ident)
		return ok && id.Name == "float64"
	}
	return isFloat(ft.Params) && isFloat(ft.Results)
}

// receiverTypeName is the type name of a method receiver, pointer stripped.
func receiverTypeName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestFlatEvalAllocationFree pins the flat point-eval hot path: once lowered,
// a Flat answers in-window Bits queries (binary search + FMA, cursor hint)
// and level crossings with zero allocations — no memo table needed.
func TestFlatEvalAllocationFree(t *testing.T) {
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantized(src, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewDelayed(q, 0.4e-3, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	f := Flatten(d1, 64e-3)
	if f == nil {
		t.Fatal("Flatten returned nil")
	}
	pts := evalPoints()
	levels := make([]float64, len(pts))
	for i, p := range pts {
		levels[i] = f.Bits(p)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		for i, p := range pts {
			c, _, _ := f.Crossing(levels[i])
			sink += f.Bits(p) + c
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
	dst := &Flat{}
	SumInto(dst, a, b) // sizes the scratch
	if n := testing.AllocsPerRun(100, func() {
		SumInto(dst, a, b)
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
	cbr, err := NewCBR(4e6)
	if err != nil {
		t.Fatal(err)
	}
	three := []Envelope{a, b, Flatten(cbr, 64e-3)}
	var ws Workspace
	rate := 1.5 * ws.Sum(three).LongTermRate() // sizes the arrays
	if _, _, ok := Backlog(ws.Sum(three), rate, 16e-3, 8); !ok {
		t.Fatal("no busy period ends inside the sum's window: the case exercises nothing")
	}
	if n := testing.AllocsPerRun(100, func() {
		Backlog(ws.Sum(three), rate, 16e-3, 8)
		ws.Sum(three[:1])
	}); n != 0 {
		t.Errorf("warm Workspace.Sum: %v allocs per run, want 0", n)
	}
}

// flatPair lowers two harness-shaped envelopes for the merge tests.
func flatPair(t *testing.T) (*Flat, *Flat) {
	t.Helper()
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	per, err := NewPeriodic(48e3, 8e-3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	a := Flatten(src, 64e-3)
	b := Flatten(per, 64e-3)
	if a == nil || b == nil {
		t.Fatal("Flatten returned nil")
	}
	return a, b
}

package traffic

import (
	"math/rand"
	"testing"

	"fafnet/internal/units"
)

// countingDescriptor wraps a descriptor and counts evaluations, for
// asserting that memoization actually short-circuits.
type countingDescriptor struct {
	Descriptor
	bitsCalls, bpCalls int
}

func (c *countingDescriptor) Bits(interval float64) float64 {
	c.bitsCalls++
	return c.Descriptor.Bits(interval)
}

func (c *countingDescriptor) Breakpoints(horizon float64) []float64 {
	c.bpCalls++
	if bp, ok := c.Descriptor.(BreakpointProvider); ok {
		return bp.Breakpoints(horizon)
	}
	return nil
}

func (c *countingDescriptor) LongTermRate() float64 { return c.Descriptor.LongTermRate() }

func TestMemoizedBitsExactAndCached(t *testing.T) {
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingDescriptor{Descriptor: src}
	m := NewMemoized(counted)

	probes := []float64{1e-4, 5e-4, 1e-3, 1e-4, 5e-4, 1e-3, 2e-2, 1e-4}
	for _, iv := range probes {
		if got, want := m.Bits(iv), src.Bits(iv); got != want {
			t.Errorf("Bits(%v) = %v, want %v", iv, got, want)
		}
	}
	if counted.bitsCalls != 4 { // 4 distinct intervals
		t.Errorf("inner Bits called %d times, want 4", counted.bitsCalls)
	}
	if m.Bits(-1) != 0 || m.Bits(0) != 0 {
		t.Error("non-positive intervals must evaluate to 0")
	}
	if got, want := m.LongTermRate(), src.LongTermRate(); got != want {
		t.Errorf("LongTermRate = %v, want %v", got, want)
	}
}

func TestMemoizedIdempotentWrap(t *testing.T) {
	src, _ := NewCBR(1e6)
	m := NewMemoized(src)
	if again := NewMemoized(m); again != m {
		t.Error("NewMemoized(Memoized) must return the same wrapper")
	}
}

func TestMemoizedBreakpointsPrefix(t *testing.T) {
	src, err := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingDescriptor{Descriptor: src}
	m := NewMemoized(counted)

	// Largest horizon first: the single inner call serves every smaller one.
	horizons := []float64{50e-3, 20e-3, 5e-3, 50e-3}
	for _, h := range horizons {
		got := CleanGrid(append([]float64(nil), m.Breakpoints(h)...), h)
		want := CleanGrid(src.Breakpoints(h), h)
		if len(got) != len(want) {
			t.Fatalf("horizon %v: %d breakpoints, want %d", h, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("horizon %v: point %d = %v, want %v", h, i, got[i], want[i])
			}
		}
	}
	if counted.bpCalls != 1 {
		t.Errorf("inner Breakpoints called %d times, want 1", counted.bpCalls)
	}
	// A horizon beyond the cache triggers exactly one recomputation.
	_ = m.Breakpoints(80e-3)
	if counted.bpCalls != 2 {
		t.Errorf("inner Breakpoints called %d times after growth, want 2", counted.bpCalls)
	}
	if m.Breakpoints(0) != nil {
		t.Error("Breakpoints(0) must be nil")
	}
}

func TestMemoizedGridEquivalence(t *testing.T) {
	// The whole point: Grid over a memoized chain must equal Grid over the
	// raw chain, so extremum searches see identical candidate points.
	src, _ := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	var chain Descriptor = src
	chain, _ = NewQuantized(chain, 36000, 94*384)
	chain, _ = NewDelayed(chain, 0.4e-3, 140e6)
	m := NewMemoized(chain)
	for _, h := range []float64{8e-3, 16e-3, 32e-3} {
		want := Grid(chain, h, 128)
		got := Grid(m, h, 128)
		if len(got) != len(want) {
			t.Fatalf("horizon %v: grid size %d, want %d", h, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("horizon %v: grid[%d] = %v, want %v", h, i, got[i], want[i])
			}
		}
	}
}

func TestFusedMemoizedChainEndToEnd(t *testing.T) {
	// The composition used by the analyzer: Fuse then Memoize, compared
	// against the raw chain on a dense random probe set.
	rng := rand.New(rand.NewSource(3))
	src, _ := NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	var chain Descriptor = src
	chain, _ = NewQuantized(chain, 36000, 94*384)
	for i := 0; i < 4; i++ {
		chain, _ = NewDelayed(chain, 0.2e-3, 140e6)
	}
	m := NewMemoized(Fuse(chain))
	for i := 0; i < 2000; i++ {
		iv := rng.Float64() * 0.1
		if got, want := m.Bits(iv), chain.Bits(iv); !units.WithinRel(got, want, units.RelTol) {
			t.Fatalf("fused+memoized Bits(%v) = %v, want %v", iv, got, want)
		}
	}
}

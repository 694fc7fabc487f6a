package traffic

import (
	"math"
	"testing"

	"fafnet/internal/units"
)

func mustDual(t *testing.T) DualPeriodic {
	t.Helper()
	d, err := NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAggregate(t *testing.T) {
	d := mustDual(t)
	c, err := NewCBR(5e6)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregate(d, c, d)
	if got := agg.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, iv := range []float64{0.0001, 0.001, 0.01, 0.1, 1} {
		want := 2*d.Bits(iv) + c.Bits(iv)
		if got := agg.Bits(iv); !units.AlmostEq(got, want) {
			t.Errorf("Bits(%v) = %v, want %v", iv, got, want)
		}
	}
	if got, want := agg.LongTermRate(), 2*15e6+5e6; !units.AlmostEq(got, want) {
		t.Errorf("LongTermRate = %v, want %v", got, want)
	}
}

func TestAggregateCopiesMembers(t *testing.T) {
	members := []Descriptor{CBR{RateBps: 1e6}}
	agg := NewAggregate(members...)
	members[0] = CBR{RateBps: 9e6}
	if got := agg.Bits(1); !units.AlmostEq(got, 1e6) {
		t.Errorf("aggregate observed caller mutation: Bits(1) = %v, want 1e6", got)
	}
}

func TestDelayed(t *testing.T) {
	d := mustDual(t)
	if _, err := NewDelayed(nil, 0.001, 0); err == nil {
		t.Error("nil inner should be rejected")
	}
	if _, err := NewDelayed(d, -1, 0); err == nil {
		t.Error("negative delay should be rejected")
	}
	if _, err := NewDelayed(d, math.Inf(1), 0); err == nil {
		t.Error("infinite delay should be rejected")
	}
	del, err := NewDelayed(d, 0.002, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range []float64{0.0001, 0.001, 0.01, 0.1} {
		want := math.Min(100e6*iv, d.Bits(iv+0.002))
		if got := del.Bits(iv); !units.AlmostEq(got, want) {
			t.Errorf("Bits(%v) = %v, want %v", iv, got, want)
		}
	}
	if got := del.LongTermRate(); !units.AlmostEq(got, 15e6) {
		t.Errorf("LongTermRate = %v, want 15e6", got)
	}
}

func TestDelayedDominatesInner(t *testing.T) {
	// The output envelope of a server must dominate its input envelope:
	// what left in window I arrived in window I+d, so A_out(I) <= A_in(I+d),
	// and without the cap A_out >= A_in pointwise is NOT required — but
	// A_in(I) <= A_in(I+d) always, so Delayed without cap dominates inner.
	d := mustDual(t)
	del, err := NewDelayed(d, 0.003, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		iv := float64(i) * 0.0002
		if del.Bits(iv)+units.Eps < d.Bits(iv) {
			t.Fatalf("Delayed envelope below inner at I=%v", iv)
		}
	}
}

func TestQuantized(t *testing.T) {
	d := mustDual(t)
	if _, err := NewQuantized(nil, 100, 100); err == nil {
		t.Error("nil inner should be rejected")
	}
	if _, err := NewQuantized(d, 0, 100); err == nil {
		t.Error("zero quantum should be rejected")
	}
	if _, err := NewQuantized(d, 100, 50); err == nil {
		t.Error("lossy conversion (out < quantum) should be rejected")
	}
	// Frame payload 36000 bits (4500 bytes) → 94 cells of 384 payload bits.
	const frame, cells = 36000.0, 94 * 384.0
	q, err := NewQuantized(d, frame, cells)
	if err != nil {
		t.Fatal(err)
	}
	// One sub-burst of 30 kbit is less than one frame: rounds to one frame.
	if got := q.Bits(0.0003); !units.AlmostEq(got, cells) {
		t.Errorf("Bits(0.3ms) = %v, want one frame's cells %v", got, cells)
	}
	// 150 kbit within 5 ms = 4.17 frames → 5 frames.
	if got := q.Bits(0.005); !units.AlmostEq(got, 5*cells) {
		t.Errorf("Bits(5ms) = %v, want %v", got, 5*cells)
	}
	wantRho := 15e6 * cells / frame
	if got := q.LongTermRate(); !units.AlmostEq(got, wantRho) {
		t.Errorf("LongTermRate = %v, want %v", got, wantRho)
	}
}

func TestQuantizedDominatesScaledInner(t *testing.T) {
	// ⌈A/q⌉·out >= A·(out/q) >= A: quantization is conservative.
	d := mustDual(t)
	q, err := NewQuantized(d, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 500; i++ {
		iv := float64(i) * 0.0001
		if q.Bits(iv)+units.Eps < d.Bits(iv) {
			t.Fatalf("quantized envelope below inner at I=%v", iv)
		}
	}
}

func TestRateCapped(t *testing.T) {
	d := mustDual(t)
	if _, err := NewRateCapped(nil, 1); err == nil {
		t.Error("nil inner should be rejected")
	}
	if _, err := NewRateCapped(d, 0); err == nil {
		t.Error("zero cap should be rejected")
	}
	rc, err := NewRateCapped(d, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	// Short windows are cap-limited (source peak is 100 Mbps > 50 Mbps cap).
	if got, want := rc.Bits(0.0001), 50e6*0.0001; !units.AlmostEq(got, want) {
		t.Errorf("Bits(0.1ms) = %v, want %v", got, want)
	}
	// Long windows are source-limited.
	if got, want := rc.Bits(1.0), d.Bits(1.0); !units.AlmostEq(got, want) {
		t.Errorf("Bits(1s) = %v, want %v", got, want)
	}
}

func TestMin(t *testing.T) {
	if _, err := NewMin(); err == nil {
		t.Error("empty Min should be rejected")
	}
	if _, err := NewMin(nil); err == nil {
		t.Error("nil member should be rejected")
	}
	d := mustDual(t)
	lb, err := NewLeakyBucket(2e4, 12e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMin(d, lb)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range []float64{1e-4, 1e-3, 1e-2, 0.1, 1} {
		want := math.Min(d.Bits(iv), lb.Bits(iv))
		if got := m.Bits(iv); !units.AlmostEq(got, want) {
			t.Errorf("Bits(%v) = %v, want %v", iv, got, want)
		}
	}
	if got := m.LongTermRate(); !units.AlmostEq(got, 12e6) {
		t.Errorf("LongTermRate = %v, want 12e6 (the tighter member)", got)
	}
}

func TestMinTightensMACBound(t *testing.T) {
	// Min with an extra constraint can only tighten an envelope.
	d := mustDual(t)
	lb, err := NewLeakyBucket(25e3, 15e6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMin(d, lb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 500; i++ {
		iv := float64(i) * 1e-4
		if m.Bits(iv) > d.Bits(iv)+units.Eps {
			t.Fatalf("Min exceeded a member at I=%v", iv)
		}
	}
}

func TestTransformChainRemainssMonotone(t *testing.T) {
	// A realistic chain: source → delayed → quantized → capped. Monotonicity
	// must survive composition.
	d := mustDual(t)
	del, err := NewDelayed(d, 0.0015, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantized(del, 36000, 94*384)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRateCapped(q, 140e6)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 1; i <= 2000; i++ {
		iv := float64(i) * 2e-5
		cur := rc.Bits(iv)
		if cur < prev-units.Eps {
			t.Fatalf("chain envelope decreased at I=%v: %v after %v", iv, cur, prev)
		}
		prev = cur
	}
}

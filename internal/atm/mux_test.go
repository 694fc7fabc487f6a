package atm

import (
	"errors"
	"math"
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

func mustLB(t *testing.T, sigma, rho, peak float64) traffic.LeakyBucket {
	t.Helper()
	b, err := traffic.NewLeakyBucket(sigma, rho, peak)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnalyzeMuxValidation(t *testing.T) {
	in := mustLB(t, 1e4, 1e6, 0)
	if _, err := AnalyzeMux(nil, MuxParams{CapacityBps: 1e8}, MuxOptions{}); err == nil {
		t.Error("no inputs should be rejected")
	}
	if _, err := AnalyzeMux([]traffic.Descriptor{nil}, MuxParams{CapacityBps: 1e8}, MuxOptions{}); err == nil {
		t.Error("nil input should be rejected")
	}
	if _, err := AnalyzeMux([]traffic.Descriptor{in}, MuxParams{CapacityBps: 0}, MuxOptions{}); err == nil {
		t.Error("zero capacity should be rejected")
	}
	if _, err := AnalyzeMux([]traffic.Descriptor{in}, MuxParams{CapacityBps: 1e8, BufferBits: -1}, MuxOptions{}); err == nil {
		t.Error("negative buffer should be rejected")
	}
}

func TestAnalyzeMuxClosedFormLeakyBuckets(t *testing.T) {
	// Three uncapped (σ, ρ) buckets into capacity C: the classical bound is
	// delay = Σσ/C, backlog = Σσ, busy period = Σσ/(C − Σρ).
	inputs := []traffic.Descriptor{
		mustLB(t, 2e4, 10e6, 0),
		mustLB(t, 1e4, 20e6, 0),
		mustLB(t, 3e4, 30e6, 0),
	}
	const c = 100e6
	res, err := AnalyzeMux(inputs, MuxParams{CapacityBps: c}, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBacklog := 6e4
	wantDelay := wantBacklog / c
	wantBusy := wantBacklog / (c - 60e6)
	if !units.WithinRel(res.BacklogBits, wantBacklog, 1e-6) {
		t.Errorf("Backlog = %v, want %v", res.BacklogBits, wantBacklog)
	}
	if !units.WithinRel(res.Delay, wantDelay, 1e-6) {
		t.Errorf("Delay = %v, want %v", res.Delay, wantDelay)
	}
	// The grid-based busy period may overshoot slightly but never undershoot.
	if res.BusyPeriod < wantBusy*(1-1e-6) {
		t.Errorf("BusyPeriod = %v below true %v", res.BusyPeriod, wantBusy)
	}
	if res.BusyPeriod > wantBusy*1.2+1e-3 {
		t.Errorf("BusyPeriod = %v too loose vs %v", res.BusyPeriod, wantBusy)
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("Outputs = %d, want 3", len(res.Outputs))
	}
	// Output envelope of input 0: min(C·I, σ + ρ(I+d)).
	for _, iv := range []float64{1e-4, 1e-3, 1e-2} {
		want := math.Min(c*iv, 2e4+10e6*(iv+wantDelay))
		if got := res.Outputs[0].Bits(iv); !units.WithinRel(got, want, 1e-6) {
			t.Errorf("Outputs[0].Bits(%v) = %v, want %v", iv, got, want)
		}
	}
}

func TestAnalyzeMuxOverload(t *testing.T) {
	inputs := []traffic.Descriptor{
		mustLB(t, 1e4, 80e6, 0),
		mustLB(t, 1e4, 50e6, 0),
	}
	_, err := AnalyzeMux(inputs, MuxParams{CapacityBps: 100e6}, MuxOptions{})
	if !errors.Is(err, ErrMuxOverload) {
		t.Errorf("err = %v, want ErrMuxOverload", err)
	}
}

func TestAnalyzeMuxBufferOverflow(t *testing.T) {
	inputs := []traffic.Descriptor{mustLB(t, 5e4, 10e6, 0)}
	_, err := AnalyzeMux(inputs, MuxParams{CapacityBps: 100e6, BufferBits: 1e4}, MuxOptions{})
	if !errors.Is(err, ErrMuxBufferOverflow) {
		t.Errorf("err = %v, want ErrMuxBufferOverflow", err)
	}
	if _, err := AnalyzeMux(inputs, MuxParams{CapacityBps: 100e6, BufferBits: 1e5}, MuxOptions{}); err != nil {
		t.Errorf("sufficient buffer rejected: %v", err)
	}
}

// TestAnalyzeMuxBufferVerdictHasNoTolerance puts the worst-case backlog
// just above the buffer, inside the relative tolerance the float engine
// uses elsewhere: the verdict must err toward rejection, so a backlog over
// the buffer overflows however small the excess, and only a buffer at least
// the backlog passes.
func TestAnalyzeMuxBufferVerdictHasNoTolerance(t *testing.T) {
	inputs := []traffic.Descriptor{mustLB(t, 5e4, 10e6, 0)}
	p := MuxParams{CapacityBps: 100e6}
	res, err := AnalyzeMux(inputs, p, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.BufferBits = res.BacklogBits / (1 + units.RelTol/2)
	if !(res.BacklogBits > p.BufferBits && res.BacklogBits <= p.BufferBits*(1+units.RelTol)) {
		t.Fatalf("backlog %v is not in (buffer, buffer·(1+RelTol)] for buffer %v", res.BacklogBits, p.BufferBits)
	}
	if _, err := AnalyzeMux(inputs, p, MuxOptions{}); !errors.Is(err, ErrMuxBufferOverflow) {
		t.Errorf("backlog %v over buffer %v by %v: err = %v, want ErrMuxBufferOverflow", res.BacklogBits, p.BufferBits, res.BacklogBits-p.BufferBits, err)
	}
	p.BufferBits = res.BacklogBits
	if _, err := AnalyzeMux(inputs, p, MuxOptions{}); err != nil {
		t.Errorf("buffer = backlog = %v rejected: %v", p.BufferBits, err)
	}
}

func TestAnalyzeMuxSmoothTrafficNoQueueing(t *testing.T) {
	// CBR inputs below capacity never queue in the fluid bound.
	a, err := traffic.NewCBR(30e6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traffic.NewCBR(40e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeMux([]traffic.Descriptor{a, b}, MuxParams{CapacityBps: 100e6}, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > 1e-9 {
		t.Errorf("Delay = %v, want ≈0 for smooth traffic", res.Delay)
	}
}

func TestAnalyzeMuxDelayMonotoneInLoad(t *testing.T) {
	// Adding a connection must not decrease the worst-case delay.
	base := []traffic.Descriptor{
		mustLB(t, 2e4, 20e6, 100e6),
		mustLB(t, 2e4, 20e6, 100e6),
	}
	res1, err := AnalyzeMux(base, MuxParams{CapacityBps: 140e6}, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	more := append([]traffic.Descriptor{mustLB(t, 2e4, 20e6, 100e6)}, base...)
	res2, err := AnalyzeMux(more, MuxParams{CapacityBps: 140e6}, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Delay < res1.Delay-units.Eps {
		t.Errorf("delay decreased when load added: %v → %v", res1.Delay, res2.Delay)
	}
}

func TestAnalyzeMuxWithDualPeriodicPaperWorkload(t *testing.T) {
	// Several paper-style sources through a payload-effective OC-3 port.
	var inputs []traffic.Descriptor
	for i := 0; i < 6; i++ {
		d, err := traffic.NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, d)
	}
	cap := PayloadCapacity(DefaultLinkBps) // ≈140 Mb/s; Σρ = 90 Mb/s
	res, err := AnalyzeMux(inputs, MuxParams{CapacityBps: cap}, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 || res.Delay > 0.05 {
		t.Errorf("Delay = %v, want small positive", res.Delay)
	}
	if res.BusyPeriod <= 0 {
		t.Errorf("BusyPeriod = %v", res.BusyPeriod)
	}
}

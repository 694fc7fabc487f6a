package atm

import (
	"testing"

	"fafnet/internal/traffic"
)

// portAggregate builds the shape the analyzer feeds a port: k connections of
// the paper's source, each behind its own delay, lowered and folded by a
// workspace of the aggregate's own into a sum under a members-union tail.
func portAggregate(t *testing.T, k int, c1 float64) *traffic.Flat {
	t.Helper()
	flats := make([]*traffic.Flat, k)
	for i := range flats {
		src, err := traffic.NewDualPeriodic(c1, 10e-3, c1/5, 1e-3, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		chain := traffic.Delayed{Inner: src, Delay: float64(8+i) * 1e-3, CapBps: 100e6}
		if flats[i] = traffic.Flatten(chain, 0.025); flats[i] == nil {
			t.Fatal("the chain has no lowering")
		}
	}
	return new(traffic.Workspace).Sum(flats)
}

// TestScanMuxAllocationFree holds the FIFO-port analysis of a flat aggregate
// whose busy period ends inside its window — the walk over its segments — at
// zero allocations. A busy period past the window lowers the aggregate's tail
// afresh, which allocates the longer array; the case that does still answers.
func TestScanMuxAllocationFree(t *testing.T) {
	capacity := PayloadCapacity(DefaultLinkBps)
	p := MuxParams{CapacityBps: capacity}
	deepest := 0.0
	for _, c1 := range []float64{50e3, 200e3} {
		sum := portAggregate(t, 6, c1)
		res, err := AnalyzeAggregate(sum, p, MuxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		deepest = max(deepest, res.BusyPeriod)
		if res.BusyPeriod > sum.Horizon() {
			continue
		}
		if avg := testing.AllocsPerRun(20, func() { AnalyzeAggregate(sum, p, MuxOptions{}) }); avg != 0 {
			t.Errorf("AnalyzeAggregate (busy period %v s) allocates %v times per run", res.BusyPeriod, avg)
		}
	}
	if deepest <= 0.025 {
		t.Errorf("deepest busy period %v s stays inside the 25 ms window: the re-lowering went untested", deepest)
	}
}

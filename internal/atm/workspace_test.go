package atm

import (
	"testing"

	"fafnet/internal/traffic"
)

// TestScanMuxAllocationFree holds the FIFO-port search — grid assembly at
// each doubled horizon, the busy-period crossing, the t→0⁺ insertion and the
// backlog scan — at zero allocations on a warmed workspace. The aggregate is
// the shape the analyzer feeds it: a flat sum of per-connection flats under a
// members-union tail, once inside its window and once past it.
func TestScanMuxAllocationFree(t *testing.T) {
	capacity := PayloadCapacity(DefaultLinkBps)
	deepest := 0.0
	for _, c1 := range []float64{50e3, 200e3} {
		sum := portAggregate(t, 6, c1)

		var ws traffic.Workspace
		var busy float64
		run := func() {
			var err error
			if busy, _, err = scanMux(sum, capacity, &ws); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("scanMux (busy period %v s) allocates %v times per run on a warmed workspace", busy, avg)
		}
		deepest = max(deepest, busy)
	}
	if deepest <= 0.025 {
		t.Errorf("deepest busy period %v s stays inside the 25 ms window: the doubling search and the tail evaluations went untested", deepest)
	}
}

package atm

import (
	"testing"

	"fafnet/internal/traffic"
)

// scanMuxFullGrid is scanMux as it ran before the grid had a stop: the whole
// candidate grid of every horizon is assembled before the crossing is looked
// for. It is the reference the prefix-first search is held to.
func scanMuxFullGrid(agg traffic.Descriptor, capacity float64, ws *traffic.Workspace) (busy, backlog float64, ok bool) {
	for horizon := initialHorizon; horizon <= maxHorizon*2; horizon *= 2 {
		grid := ws.Grid(agg, horizon, gridPoints)
		if i, found := busyCrossing(agg, grid, capacity); found {
			grid = traffic.InsertGridPoint(grid[:i+1], traffic.GridNudge)
			return grid[len(grid)-1], maxMuxBacklog(agg, grid, capacity), true
		}
	}
	return 0, 0, false
}

// portAggregate builds the shape the analyzer feeds scanMux: k connections of
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

// TestScanMuxPrefixMatchesFullGrid: the busy period and the backlog of the
// prefix-first search are bit-equal to the full-grid search's, wherever the
// busy period ends — inside the first prefix, inside the extension to the
// initial horizon, and beyond the initial horizon.
func TestScanMuxPrefixMatchesFullGrid(t *testing.T) {
	capacity := PayloadCapacity(DefaultLinkBps)
	var ws traffic.Workspace
	const firstPrefix = initialHorizon / muxPrefixDivisor
	seen := map[string]int{}
	for k := 1; k <= 9; k++ {
		for _, c1 := range []float64{20e3, 50e3, 100e3, 150e3, 200e3} {
			agg := portAggregate(t, k, c1)
			if agg.LongTermRate() >= capacity {
				continue
			}
			wantBusy, wantBacklog, ok := scanMuxFullGrid(agg, capacity, &ws)
			busy, backlog, err := scanMux(agg, capacity, &ws)
			if ok != (err == nil) {
				t.Fatalf("k=%d c1=%v: full-grid search found a crossing: %v, prefix-first search: %v", k, c1, ok, err)
			}
			if !ok {
				continue
			}
			if busy != wantBusy || backlog != wantBacklog {
				t.Errorf("k=%d c1=%v: busy %v backlog %v, the full-grid search gives %v and %v", k, c1, busy, backlog, wantBusy, wantBacklog)
			}
			switch {
			case busy <= firstPrefix:
				seen["first prefix"]++
			case busy <= initialHorizon:
				seen["extension"]++
			default:
				seen["doubled horizon"]++
			}
		}
	}
	t.Log(seen)
	for _, where := range []string{"first prefix", "extension", "doubled horizon"} {
		if seen[where] == 0 {
			t.Errorf("no case ends its busy period in the %s (%v): the test exercises less than it claims", where, seen)
		}
	}
}

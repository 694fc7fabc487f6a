package core

import (
	"fmt"
	"sync"
	"testing"
)

// standingSix returns six connections on distinct source hosts of the default
// grid, all crossing the backbone, at a feasible allocation.
func standingSix(t *testing.T) []*Connection {
	t.Helper()
	net := defaultNet(t)
	var conns []*Connection
	for i, pair := range [][4]int{{0, 0, 1, 0}, {0, 1, 2, 1}, {1, 0, 2, 0}, {1, 1, 0, 2}, {2, 0, 0, 3}, {2, 1, 1, 2}} {
		conns = append(conns, testConnOn(t, net, fmt.Sprintf("standing-%d", i), pair[0], pair[1], pair[2], pair[3], 2e-3, 2e-3))
	}
	return conns
}

// TestOverflowEvictionKeepsStandingSet feeds one analyzer 300 unique
// candidate ids against six standing connections — the churn regime — and
// watches the sender-MAC cache: each evaluation may miss once, for the new
// candidate. When the tracked-id bound overflows, the ids that left are
// evicted and the standing six keep their state; a wholesale clear would show
// as seven misses in one evaluation.
func TestOverflowEvictionKeepsStandingSet(t *testing.T) {
	standing := standingSix(t)
	net := defaultNet(t)
	a, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Delays(standing); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		cand := testConnOn(t, net, fmt.Sprintf("unique-%d", i), 0, 2, 1, 3, 2e-3, 2e-3)
		before := a.CacheStats()
		if _, err := a.Delays(append(standing[:len(standing):len(standing)], cand)); err != nil {
			t.Fatal(err)
		}
		if d := a.CacheStats().Sub(before); d.MACMisses > 1 {
			t.Fatalf("evaluation %d (%d ids tracked): %d sender-MAC misses, want at most the candidate's one — the standing set was recomputed",
				i, len(a.specs), d.MACMisses)
		}
		if len(a.specs) > maxTrackedConns {
			t.Fatalf("evaluation %d: %d ids tracked, bound %d", i, len(a.specs), maxTrackedConns)
		}
	}
	for _, c := range standing {
		if _, ok := a.specs[c.ID]; !ok {
			t.Errorf("standing connection %q lost its tracked state", c.ID)
		}
	}
}

// TestAnalyzersDoNotShareScratch runs two analyzers on two goroutines over the
// same network and connection set (under -race in `make race` and CI): every
// grid, breakpoint list and scan table comes from the analyzer's own
// workspace, so the runs neither race nor disturb each other's results.
func TestAnalyzersDoNotShareScratch(t *testing.T) {
	standing := standingSix(t)
	net := defaultNet(t)
	ref, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Connections are only read by an evaluation, so the goroutines share them.
	allocs := []float64{1.6e-3, 2e-3, 2.4e-3, 3e-3, 1.3e-3}
	const rounds = 40
	sets := make([][]*Connection, rounds)
	want := make([]map[string]float64, rounds)
	for r := range sets {
		cand := testConnOn(t, net, "probe", 0, 2, 1, 3, allocs[r%len(allocs)], allocs[(r+2)%len(allocs)])
		sets[r] = append(standing[:len(standing):len(standing)], cand)
		if want[r], err = ref.Delays(sets[r]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		a, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := a.Delays(sets[r])
				if err != nil {
					t.Error(err)
					return
				}
				for id, d := range want[r] {
					if got[id] != d {
						t.Errorf("analyzer %d, round %d: delay of %q = %v, sequential reference %v", g, r, id, got[id], d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

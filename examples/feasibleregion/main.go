// Feasibleregion renders the paper's Figure 6: the set of feasible
// allocations (H_S, H_R) for a new connection on the H_S–H_R plane, probed
// point by point with the real analysis. Theorems 3–4 say the region is
// closed and convex — a rectangle whose lower-left boundary is carved out by
// the deadline constraints — and the CAC's chosen points (min_need, the
// β-interpolated allocation, max_need) all lie on the proportional line ζ.
package main

import (
	"fmt"
	"log"

	"fafnet"
)

func main() {
	net, err := fafnet.NewNetwork(fafnet.DefaultTopology())
	if err != nil {
		log.Fatal(err)
	}
	cac, err := fafnet.NewController(net, fafnet.Options{Beta: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	src, err := fafnet.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		log.Fatal(err)
	}

	// Preload two competitors so the region has a nontrivial boundary.
	for i, pair := range [][4]int{{0, 1, 1, 1}, {1, 2, 0, 2}} {
		dec, err := cac.RequestAdmission(fafnet.ConnSpec{
			ID:     fmt.Sprintf("bg-%d", i),
			Src:    fafnet.HostID{Ring: pair[0], Index: pair[1]},
			Dst:    fafnet.HostID{Ring: pair[2], Index: pair[3]},
			Source: src, Deadline: 0.032,
		})
		if err != nil || !dec.Admitted {
			log.Fatalf("background admission failed: %v %v", err, dec.Reason)
		}
	}

	probe := fafnet.ConnSpec{
		ID:       "probe",
		Src:      fafnet.HostID{Ring: 0, Index: 0},
		Dst:      fafnet.HostID{Ring: 1, Index: 0},
		Source:   src,
		Deadline: 0.030, // tight: the deadline boundary becomes visible
	}

	_, hsMax := cac.RingLedger(0)
	_, hrMax := cac.RingLedger(1)
	fmt.Printf("probing the H_S–H_R plane for %q (deadline %.0f ms)\n", probe.ID, probe.Deadline*1e3)
	fmt.Printf("available: H_S <= %.2f ms, H_R <= %.2f ms\n\n", hsMax*1e3, hrMax*1e3)

	const cells = 24
	fmt.Println("  H_R (ms)  ('#' feasible, '.' infeasible; rows top to bottom = high to low H_R)")
	for row := cells; row >= 1; row-- {
		hr := hrMax * float64(row) / cells
		fmt.Printf("  %6.2f  ", hr*1e3)
		for col := 1; col <= cells; col++ {
			hs := hsMax * float64(col) / cells
			ok, err := cac.FeasibleAllocation(probe, hs, hr)
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				fmt.Print("#")
			} else {
				fmt.Print(".")
			}
		}
		fmt.Println()
	}
	fmt.Printf("          %s\n", ticks(cells))
	fmt.Printf("          H_S from %.2f to %.2f ms\n\n", hsMax/cells*1e3, hsMax*1e3)

	dec, err := cac.RequestAdmission(probe)
	if err != nil {
		log.Fatal(err)
	}
	if !dec.Admitted {
		fmt.Println("probe rejected:", dec.Reason)
		return
	}
	fmt.Println("the CAC's points on the proportional line ζ:")
	fmt.Printf("  min_need  (H_S, H_R) = (%.3f, %.3f) ms\n", dec.HSMinNeed*1e3, dec.HRMinNeed*1e3)
	fmt.Printf("  chosen β=0.5         = (%.3f, %.3f) ms\n", dec.HS*1e3, dec.HR*1e3)
	fmt.Printf("  max_need             = (%.3f, %.3f) ms\n", dec.HSMaxNeed*1e3, dec.HRMaxNeed*1e3)
	fmt.Printf("  max_avail            = (%.3f, %.3f) ms\n", dec.HSMaxAvail*1e3, dec.HRMaxAvail*1e3)
}

func ticks(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '-'
	}
	return string(s)
}

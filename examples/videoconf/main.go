// Videoconf: a multi-site video conference across the FDDI-ATM-FDDI
// network. Each site contributes one bursty video stream and one audio
// stream toward another site. The example admits the whole conference at
// three different β settings and shows how the allocation knob trades the
// delay slack of admitted streams against room for late joiners — the
// tension Section 5.3 of the paper is about.
package main

import (
	"fmt"
	"log"

	"fafnet"
)

// stream describes one conference flow.
type stream struct {
	id       string
	src, dst fafnet.HostID
	video    bool
	deadline float64
}

func conference() []stream {
	return []stream{
		// Three sites (one ring each); each sends video+audio to the next.
		{"video-a", fafnet.HostID{Ring: 0, Index: 0}, fafnet.HostID{Ring: 1, Index: 0}, true, 0.045},
		{"audio-a", fafnet.HostID{Ring: 0, Index: 1}, fafnet.HostID{Ring: 1, Index: 1}, false, 0.035},
		{"video-b", fafnet.HostID{Ring: 1, Index: 2}, fafnet.HostID{Ring: 2, Index: 0}, true, 0.045},
		{"audio-b", fafnet.HostID{Ring: 1, Index: 3}, fafnet.HostID{Ring: 2, Index: 1}, false, 0.035},
		{"video-c", fafnet.HostID{Ring: 2, Index: 2}, fafnet.HostID{Ring: 0, Index: 2}, true, 0.045},
		{"audio-c", fafnet.HostID{Ring: 2, Index: 3}, fafnet.HostID{Ring: 0, Index: 3}, false, 0.035},
		// A late joiner on the busiest ring.
		{"video-late", fafnet.HostID{Ring: 0, Index: 2}, fafnet.HostID{Ring: 2, Index: 2}, true, 0.050},
	}
}

func main() {
	video, err := fafnet.NewDualPeriodic(60e3, 0.010, 12e3, 0.001, 100e6) // 6 Mb/s bursty
	if err != nil {
		log.Fatal(err)
	}
	audio, err := fafnet.NewPeriodic(2e3, 0.002, 100e6) // 1 Mb/s, 2 ms frames
	if err != nil {
		log.Fatal(err)
	}

	for _, beta := range []float64{0, 0.5, 1} {
		fmt.Printf("=== beta = %.1f ===\n", beta)
		net, err := fafnet.NewNetwork(fafnet.DefaultTopology())
		if err != nil {
			log.Fatal(err)
		}
		cac, err := fafnet.NewController(net, fafnet.Options{Beta: beta, BetaSet: true})
		if err != nil {
			log.Fatal(err)
		}

		admitted := 0
		var minSlack float64 = 1e9
		for _, s := range conference() {
			var src fafnet.Descriptor = audio
			if s.video {
				src = video
			}
			dec, err := cac.RequestAdmission(fafnet.ConnSpec{
				ID: s.id, Src: s.src, Dst: s.dst, Source: src, Deadline: s.deadline,
			})
			if err != nil {
				log.Fatal(err)
			}
			if !dec.Admitted {
				fmt.Printf("  %-10s REJECTED: %s\n", s.id, dec.Reason)
				continue
			}
			admitted++
			slack := s.deadline - dec.Delays[s.id]
			if slack < minSlack {
				minSlack = slack
			}
			fmt.Printf("  %-10s admitted: H_S=%.2fms H_R=%.2fms, slack %.1f ms\n",
				s.id, dec.HS*1e3, dec.HR*1e3, slack*1e3)
		}

		var ringUse float64
		for r := 0; r < net.NumRings(); r++ {
			allocated, _ := cac.RingLedger(r)
			ringUse += allocated
		}
		fmt.Printf("  summary: %d/7 admitted, tightest slack %.1f ms, total ring time used %.2f ms\n\n",
			admitted, minSlack*1e3, ringUse*1e3)
	}
	fmt.Println("beta=0 leaves streams with no slack (fragile to future joins);")
	fmt.Println("beta=1 burns ring bandwidth; intermediate beta balances both.")
}

// Mixedlan: the Section 7 extension — legacy IEEE 802.5 token-ring
// segments in place of FDDI. The paper observes that the decomposition
// methodology carries over by swapping the MAC server analysis: the 802.5
// station holds the token for up to its THT once per bounded rotation, so
// Theorem 1 applies with (rotation target, THT) in place of (TTRT, H).
//
// This example hand-assembles the end-to-end budget of a connection that
// crosses a 16 Mb/s token ring, the ATM backbone, and a second token ring,
// and shows the THT trade-off at the sender.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"fafnet"
	"fafnet/internal/atm"
	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
	"fafnet/internal/traffic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	ringCfg := fafnet.DefaultTokenRingConfig() // 16 Mb/s, 8 ms rotation
	// As the timed-token model sees it: rotation target as TTRT, walk time as
	// overhead, and below, the THT as the allocation H.
	ring := ringCfg.SimConfig()

	// A 1 Mb/s periodic control stream: 10 kbit every 10 ms.
	src, err := fafnet.NewPeriodic(10e3, 0.010, ringCfg.BandwidthBps)
	if err != nil {
		return err
	}

	// Ring-level bookkeeping mirrors the FDDI case: ΣTHT + walk <= target.
	fmt.Fprintf(w, "802.5 segment: %.0f Mb/s, rotation target %.1f ms, %.2f ms grantable\n\n",
		ringCfg.BandwidthBps/1e6, ringCfg.TargetRotation*1e3, ring.UsableTTRT()*1e3)

	fmt.Fprintln(w, "sender 802.5_MAC bound as the THT grows:")
	fmt.Fprintf(w, "%8s %14s %14s\n", "THT(ms)", "delay(ms)", "backlog(kbit)")
	for _, tht := range []float64{0.8e-3, 1e-3, 1.5e-3, 2e-3, 3e-3} {
		res, err := fddi.AnalyzeMAC(src, fddi.MACParams{Ring: ring, H: tht}, fafnet.FDDIMACOptions{})
		if err != nil {
			fmt.Fprintf(w, "%8.2f %14s %14s\n", tht*1e3, "unbounded", "-")
			continue
		}
		fmt.Fprintf(w, "%8.2f %14.2f %14.2f\n", tht*1e3, res.Delay*1e3, res.BufferBits/1e3)
	}

	// End-to-end: sender 802.5_MAC → interface device (Theorem 2) → ATM
	// output port → reassembly → receiver 802.5_MAC, plus constant stages.
	const tht = 2e-3
	sender, err := fddi.AnalyzeMAC(src, fddi.MACParams{Ring: ring, H: tht}, fafnet.FDDIMACOptions{})
	if err != nil {
		return err
	}
	idParams := ifdev.DefaultParams()
	frameBits := tht * ringCfg.BandwidthBps // F_S = THT·BW, as in the FDDI case
	converted, err := ifdev.SenderConversion(sender.Output, frameBits, idParams)
	if err != nil {
		return err
	}

	// The ATM port also carries two competing legacy streams.
	competitor, err := traffic.NewLeakyBucket(20e3, 3e6, 16e6)
	if err != nil {
		return err
	}
	mux, err := atm.AnalyzeMux(
		[]traffic.Descriptor{converted, competitor, competitor},
		atm.MuxParams{CapacityBps: atm.PayloadCapacity(atm.DefaultLinkBps)},
		atm.MuxOptions{},
	)
	if err != nil {
		return err
	}

	reassembled, err := ifdev.ReceiverConversion(mux.Outputs[0], frameBits, idParams)
	if err != nil {
		return err
	}
	receiver, err := fddi.AnalyzeMAC(reassembled, fddi.MACParams{Ring: ring, H: tht}, fafnet.FDDIMACOptions{})
	if err != nil {
		return err
	}

	constant := idParams.SenderConstantDelay() + idParams.ReceiverConstantDelay() + 3*10e-6
	total := sender.Delay + mux.Delay + receiver.Delay + constant
	fmt.Fprintf(w, "\nend-to-end worst case at THT = %.1f ms:\n", tht*1e3)
	fmt.Fprintf(w, "  802.5_MAC (send)  %8.2f ms\n", sender.Delay*1e3)
	fmt.Fprintf(w, "  ATM output port   %8.3f ms\n", mux.Delay*1e3)
	fmt.Fprintf(w, "  802.5_MAC (recv)  %8.2f ms\n", receiver.Delay*1e3)
	fmt.Fprintf(w, "  constant stages   %8.3f ms\n", constant*1e3)
	fmt.Fprintf(w, "  total             %8.2f ms\n", total*1e3)

	return integrated(w, ring)
}

// integrated runs the same idea through the full admission controller: a
// heterogeneous topology whose third segment is the 802.5 ring, so the CAC
// allocates THT there and TTRT-synchronous time on the FDDI segments.
func integrated(w io.Writer, tr fafnet.RingHardware) error {
	topoCfg := fafnet.DefaultTopology()
	topoCfg.Rings = []fafnet.RingHardware{topoCfg.Ring, topoCfg.Ring, tr}

	net, err := fafnet.NewNetwork(topoCfg)
	if err != nil {
		return err
	}
	cac, err := fafnet.NewController(net, fafnet.Options{Beta: 0.5})
	if err != nil {
		return err
	}
	src, err := fafnet.NewDualPeriodic(20e3, 0.010, 4e3, 0.001, 16e6)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nintegrated CAC over the mixed FDDI/FDDI/802.5 network:")
	for _, req := range []struct {
		id         string
		srcR, srcH int
		dstR, dstH int
	}{
		{"fddi→802.5", 0, 0, 2, 0},
		{"802.5→fddi", 2, 1, 1, 0},
	} {
		dec, err := cac.RequestAdmission(fafnet.ConnSpec{
			ID:       req.id,
			Src:      fafnet.HostID{Ring: req.srcR, Index: req.srcH},
			Dst:      fafnet.HostID{Ring: req.dstR, Index: req.dstH},
			Source:   src,
			Deadline: 0.120,
		})
		if err != nil {
			return err
		}
		if !dec.Admitted {
			fmt.Fprintf(w, "  %-12s REJECTED: %s\n", req.id, dec.Reason)
			continue
		}
		fmt.Fprintf(w, "  %-12s H_S=%.2f ms, H_R=%.2f ms, worst case %.1f ms\n",
			req.id, dec.HS*1e3, dec.HR*1e3, dec.Delays[req.id]*1e3)
	}
	return nil
}

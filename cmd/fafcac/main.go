// Command fafcac runs connection admission control over a JSON scenario:
// it executes the scenario's admissions and releases in order, printing
// each decision, the granted allocations, and the per-server worst-case
// delay budget of every admitted connection (the Eq. 7 decomposition).
//
// Usage:
//
//	fafcac [-scenario file.json] [-v]
//
// Without -scenario the built-in demonstration scenario runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fafnet/internal/core"
	"fafnet/internal/scenario"
	"fafnet/internal/topo"
)

func main() {
	var (
		path    = flag.String("scenario", "", "scenario JSON file (default: built-in demo)")
		verbose = flag.Bool("v", false, "print the delay breakdown of every admitted connection")
	)
	flag.Parse()
	if err := run(os.Stdout, *path, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "fafcac:", err)
		os.Exit(1)
	}
}

// run executes the scenario and writes the decision log to w. Keeping w a
// parameter lets the golden-file test pin the output bytes.
func run(w io.Writer, path string, verbose bool) error {
	var (
		s   scenario.Scenario
		err error
	)
	if path == "" {
		s = scenario.Default()
	} else if s, err = scenario.Load(path); err != nil {
		return err
	}

	net, err := topo.NewNetwork(s.TopologyConfig())
	if err != nil {
		return err
	}
	opts, err := s.CACOptions()
	if err != nil {
		return err
	}
	ctl, err := core.NewController(net, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario %q: %d rings × %d hosts, %d switches, beta=%.2g, rule=%s\n\n",
		s.Name, net.Config().NumRings, net.Config().HostsPerRing, net.Config().NumSwitches,
		ctl.Options().Beta, ctl.Options().Rule)

	for i, a := range s.Actions {
		if a.Release != "" {
			if ctl.Release(a.Release) {
				fmt.Fprintf(w, "%2d. release %-10s ok\n", i+1, a.Release)
			} else {
				fmt.Fprintf(w, "%2d. release %-10s (not admitted)\n", i+1, a.Release)
			}
			continue
		}
		spec, err := a.Admit.Spec()
		if err != nil {
			return err
		}
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			return err
		}
		if !dec.Admitted {
			fmt.Fprintf(w, "%2d. admit   %-10s REJECTED: %s (probes=%d)\n", i+1, spec.ID, dec.Reason, dec.Probes)
			continue
		}
		fmt.Fprintf(w, "%2d. admit   %-10s %v→%v  H_S=%.3fms H_R=%.3fms  delay=%.2fms/deadline=%.0fms (probes=%d)\n",
			i+1, spec.ID, spec.Src, spec.Dst, dec.HS*1e3, dec.HR*1e3,
			dec.Delays[spec.ID]*1e3, spec.Deadline*1e3, dec.Probes)
		if verbose {
			printBreakdown(w, ctl, spec.ID)
		}
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "final state:")
	conns, report, err := ctl.ConnectionsAndDelays()
	if err != nil {
		return err
	}
	for _, c := range conns {
		fmt.Fprintf(w, "  %-10s %v→%v  worst-case %.2f ms  (deadline %.0f ms, slack %.2f ms)\n",
			c.ID, c.Src, c.Dst, report[c.ID]*1e3, c.Deadline*1e3, (c.Deadline-report[c.ID])*1e3)
	}
	for r := 0; r < net.NumRings(); r++ {
		allocated, _ := ctl.RingLedger(r)
		fmt.Fprintf(w, "  ring %d: %.3f ms of %.3f ms synchronous time allocated\n",
			r, allocated*1e3, net.RingConfig(r).UsableTTRT()*1e3)
	}
	if verbose {
		buffers, err := ctl.BufferReport()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "buffer provisioning (Theorem 1, Eq. 10):")
		for _, b := range buffers {
			fmt.Fprintf(w, "  %-10s source MAC %.1f kbit, interface-device MAC %.1f kbit\n",
				b.ConnID, b.SrcBufferBits/1e3, b.DstBufferBits/1e3)
		}
	}
	return nil
}

func printBreakdown(w io.Writer, ctl *core.Controller, id string) {
	bd, err := ctl.BreakdownFor(id)
	if err != nil {
		fmt.Fprintf(w, "      breakdown unavailable: %v\n", err)
		return
	}
	fmt.Fprintf(w, "      src MAC %.3fms", bd.SrcMAC*1e3)
	for _, p := range bd.Ports {
		fmt.Fprintf(w, " | %s %.3fms", p.Port, p.Delay*1e3)
	}
	if bd.DstMAC > 0 {
		fmt.Fprintf(w, " | dst MAC %.3fms", bd.DstMAC*1e3)
	}
	fmt.Fprintf(w, " | constant %.3fms = %.3fms\n", bd.Constant*1e3, bd.Total*1e3)
}

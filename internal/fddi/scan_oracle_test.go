package fddi

import (
	"fmt"
	"math"
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// exhaustiveScanMAC is Theorem 1's two extremum scans the slow way: A is
// evaluated at every point of the candidate grid scanMAC assembles and both
// maxima are taken over all of them, with no appeal to monotonicity. It is
// the oracle for the reduced scans of macScan.
func exhaustiveScanMAC(in traffic.Descriptor, p MACParams, busy float64, gridPoints int) (backlog, delay float64, evals int) {
	var ws traffic.Workspace
	ttrt := p.Ring.TTRT
	grid := ws.Grid(in, busy, gridPoints, appendMultiples(nil, ttrt, busy), []float64{traffic.GridNudge})
	svc := p.ServiceBitsPerRotation()
	for _, t := range grid {
		a := in.Bits(t)
		evals++
		if b := a - p.Avail(t); b > backlog {
			backlog = b
		}
		if a > units.Eps {
			if d := (units.CeilDiv(a, svc)+1)*ttrt - t; d > delay {
				delay = d
			}
		}
	}
	return backlog, delay, evals
}

// TestScanMACMatchesExhaustiveScan holds the reduced scans — last point per
// rotation for F, bound-pruned run splitting for χ — bit-equal to the scan
// over every grid point, on the chain and on its lowered form, from a shallow
// busy interval to one of more than 500 rotations with the allocation within
// 0.5 % of the stability limit. parentEvals pins the envelope evaluations the
// unpruned splitting spent on the same case (measured at the parent commit):
// the pruning may only lower them. The scan without the backlog (what a
// caller that reads no F runs) must give the same χ, bit for bit, and no F.
func TestScanMACMatchesExhaustiveScan(t *testing.T) {
	chain, flat, deep := deepInput(t)
	ring := deep.Ring
	hMin := chain.LongTermRate() * ring.TTRT / ring.BandwidthBps
	cases := []struct {
		name        string
		h           float64
		minRot      float64
		parentEvals [2]int // chain, flat
	}{
		{"shallow", 2e-3, 0, [2]int{11, 11}},
		{"mid", 1.1 * hMin, 20, [2]int{184, 184}},
		{"deep", 1.02 * hMin, 100, [2]int{898, 898}},
		{"deepest", 1.004 * hMin, 500, [2]int{2701, 2701}},
	}
	for _, c := range cases {
		for k, in := range []traffic.Descriptor{chain, flat} {
			t.Run(fmt.Sprintf("%s/%T", c.name, in), func(t *testing.T) {
				p := MACParams{Ring: ring, H: c.h}
				busy, _, ok := busyInterval(in, p.ServiceBitsPerRotation(), ring.TTRT, maxBusyRotations)
				if !ok {
					t.Fatal("no busy interval")
				}
				if busy < c.minRot*ring.TTRT {
					t.Fatalf("busy interval of %v rotations, want at least %v: the case exercises nothing", busy/ring.TTRT, c.minRot)
				}
				var ws traffic.Workspace
				gotF, gotChi, evals := scanMAC(&ws, in, p, busy, tGridPoints, true)
				wantF, wantChi, all := exhaustiveScanMAC(in, p, busy, 160)
				if gotF != wantF {
					t.Errorf("F = %v, exhaustive scan %v", gotF, wantF)
				}
				if gotChi != wantChi {
					t.Errorf("chi = %v, exhaustive scan %v", gotChi, wantChi)
				}
				noF, chi, _ := scanMAC(&ws, in, p, busy, tGridPoints, false)
				if chi != gotChi || !math.IsNaN(noF) {
					t.Errorf("without the backlog scan: chi = %v, F = %v; with it chi = %v", chi, noF, gotChi)
				}
				t.Logf("busy %.0f rotations, grid %d points, evals %d (parent %d)", busy/ring.TTRT, all, evals, c.parentEvals[k])
				if evals > c.parentEvals[k] {
					t.Errorf("%d envelope evaluations, the unpruned scan spent %d", evals, c.parentEvals[k])
				}
			})
		}
	}
}

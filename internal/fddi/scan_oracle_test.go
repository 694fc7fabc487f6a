package fddi

import (
	"fmt"
	"math"
	"testing"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// exhaustiveScanMAC is Theorem 1's two extremum scans the slow way: A is
// evaluated at every point of the full candidate grid and both maxima are
// taken over all of them, with no appeal to monotonicity. It is the oracle
// for the reduced scans of macScan, which stand on A being nondecreasing:
// monotone reports whether the computed values are, point by point.
func exhaustiveScanMAC(in traffic.Descriptor, p MACParams, busy float64, gridPoints int) (backlog, delay float64, monotone bool) {
	var ws traffic.Workspace
	ttrt := p.Ring.TTRT
	grid := ws.Grid(in, busy, gridPoints, appendMultiples(nil, ttrt, busy), []float64{traffic.GridNudge})
	svc := p.RotationServiceBits()
	monotone = true
	prev := math.Inf(-1)
	for _, t := range grid {
		a := in.Bits(t)
		monotone = monotone && a >= prev
		prev = a
		if b := a - p.Avail(t); b > backlog {
			backlog = b
		}
		if a > units.Eps {
			if d := (units.CeilDiv(a, svc)+1)*ttrt - t; d > delay {
				delay = d
			}
		}
	}
	return backlog, delay, monotone
}

// fullScanMAC is scanMAC over the full grid: one pass over the whole busy
// interval, as without a line. The stopped scan must spend exactly its
// evaluations.
func fullScanMAC(in traffic.Descriptor, p MACParams, busy float64, gridPoints int, backlog bool) (backlogBits, delay float64, evals int) {
	var ws traffic.Workspace
	s := newMACScan(in, p)
	s.assemble(&ws, busy, gridPoints, busy)
	s.run(backlog)
	backlogBits = math.NaN()
	if backlog {
		backlogBits = s.backlog
	}
	return backlogBits, s.delay, s.evals
}

// checkStoppedScan holds scanMAC, delay-only and with the backlog, to the same
// scans over the full grid — χ and F bit for bit, and the same count of
// envelope evaluations: the scans read points by index and stop, never by the
// grid's length, so the stop saves assembly and costs no evaluation — and to
// the exhaustive scan over the full grid, bit for bit, wherever the computed
// envelope is nondecreasing there. (Where rounding makes it dip by an ulp, the
// reduced scans, which skip points by monotonicity, can miss the dip's top;
// they did so before the grid stopped too.) It returns the envelope
// evaluations the scan with the backlog spent, and the grid points each scan
// assembled, delay-only first.
func checkStoppedScan(t *testing.T, ws *traffic.Workspace, in traffic.Descriptor, p MACParams, busy float64) (evals int, points [2]uint64) {
	t.Helper()
	wantF, wantChi, monotone := exhaustiveScanMAC(in, p, busy, tGridPoints)
	for _, backlog := range []bool{true, false} {
		before := mMACGridPoints.Value()
		gotF, gotChi, got := scanMAC(ws, in, p, busy, tGridPoints, backlog)
		built := mMACGridPoints.Value() - before
		fullF, fullChi, full := fullScanMAC(in, p, busy, tGridPoints, backlog)
		if math.Float64bits(gotChi) != math.Float64bits(fullChi) || math.Float64bits(gotF) != math.Float64bits(fullF) {
			t.Errorf("%v at H=%v, backlog %v: chi = %v, F = %v; over the full grid %v, %v", in, p.H, backlog, gotChi, gotF, fullChi, fullF)
		}
		if got != full {
			t.Errorf("%v at H=%v, backlog %v: %d envelope evaluations, the full-grid scan spent %d", in, p.H, backlog, got, full)
		}
		if monotone && math.Float64bits(gotChi) != math.Float64bits(wantChi) {
			t.Errorf("%v at H=%v, backlog %v: chi = %v, exhaustive scan over the full grid %v", in, p.H, backlog, gotChi, wantChi)
		}
		if monotone && backlog && math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("%v at H=%v: F = %v, exhaustive scan over the full grid %v", in, p.H, gotF, wantF)
		}
		if !backlog && !math.IsNaN(gotF) {
			t.Errorf("%v at H=%v: F = %v without the backlog scan, want NaN", in, p.H, gotF)
		}
		if backlog {
			evals, points[1] = got, built
		} else {
			points[0] = built
		}
	}
	return evals, points
}

// gridPrefixLen returns the number of points of scanMAC's candidate grid up
// to limit.
func gridPrefixLen(in traffic.Descriptor, p MACParams, busy, limit float64) uint64 {
	var ws traffic.Workspace
	ttrt := p.Ring.TTRT
	return uint64(len(ws.GridPrefix(in, busy, tGridPoints, limit, appendMultiples(nil, ttrt, busy), []float64{traffic.GridNudge})))
}

// TestScanMACMatchesExhaustiveScan holds the reduced scans — last point per
// rotation for F, bound-pruned run splitting for χ, both over the grid the
// line σ + ρ·t stops — bit-equal to the scan over every point of the full
// grid, on the chain and on its lowered form, from a shallow busy interval to
// one of more than 500 rotations with the allocation within 0.5 % of the
// stability limit. parentEvals pins the envelope evaluations an earlier scan
// spent on the same case, which the scan may only lower: the unpruned
// splitting for shallow, mid, deep and deepest (buffered is deep with F, under
// deep's ceiling), the pruned scan over the full grid, before the grid
// stopped, for first and noline. The scan without the backlog (what a
// caller that reads no F runs) must give the same χ, bit for bit, and no F.
// grid names the assembly each case pins for the delay-only scan a probe runs:
// the first pass alone (the stop lies inside 2·TTRT), a second pass stopped
// short of the busy interval's end, or the full grid in one pass (no line: a
// descriptor type without a burst rule). The buffer-bounded case pins the
// scan with F, which AnalyzeMACDelay runs for the overflow verdict, and holds
// AnalyzeMACDelay's F and χ to the exhaustive scan.
func TestScanMACMatchesExhaustiveScan(t *testing.T) {
	chain, flat, deep := deepInput(t)
	ring := deep.Ring
	hMin := chain.LongTermRate() * ring.TTRT / ring.BandwidthBps
	lined := []traffic.Descriptor{chain, flat}
	noline := withoutBurstRule(t, chain)
	cases := []struct {
		name        string
		in          []traffic.Descriptor
		h           float64
		buffer      float64
		minRot      float64
		grid        string // "first", "second" or "full"
		parentEvals [2]int // chain, flat
	}{
		{"shallow", lined, 2e-3, 0, 0, "full", [2]int{11, 11}},
		{"first", lined, 1.2 * hMin, 0, 10, "first", [2]int{40, 40}},
		{"mid", lined, 1.1 * hMin, 0, 20, "second", [2]int{184, 184}},
		{"deep", lined, 1.02 * hMin, 0, 100, "second", [2]int{898, 898}},
		{"deepest", lined, 1.004 * hMin, 0, 500, "second", [2]int{2701, 2701}},
		{"noline", []traffic.Descriptor{noline}, 1.5 * hMin, 0, 5, "full", [2]int{18}},
		{"buffered", lined, 1.02 * hMin, 1e9, 100, "second", [2]int{898, 898}},
	}
	for _, c := range cases {
		for k, in := range c.in {
			t.Run(fmt.Sprintf("%s/%T", c.name, in), func(t *testing.T) {
				p := MACParams{Ring: ring, H: c.h, BufferBits: c.buffer}
				busy, _, ok := busyInterval(in, p.RotationServiceBits(), ring.TTRT, maxBusyRotations)
				if !ok {
					t.Fatal("no busy interval")
				}
				if busy < c.minRot*ring.TTRT {
					t.Fatalf("busy interval of %v rotations, want at least %v: the case exercises nothing", busy/ring.TTRT, c.minRot)
				}
				var ws traffic.Workspace
				evals, points := checkStoppedScan(t, &ws, in, p, busy)
				built := points[0]
				if c.buffer > 0 {
					built = points[1]
				}
				full := gridPrefixLen(in, p, busy, busy)
				first := gridPrefixLen(in, p, busy, min(busy, firstWindow*ring.TTRT))
				var pinned bool
				switch c.grid {
				case "first":
					pinned = built == first && first < full
				case "second":
					pinned = built > first && built-first < full
				default:
					pinned = built == full
				}
				if !pinned {
					t.Errorf("assembled %d grid points (first window %d, full grid %d), want the %s grid", built, first, full, c.grid)
				}
				if c.buffer > 0 {
					wantF, wantChi, monotone := exhaustiveScanMAC(in, p, busy, tGridPoints)
					if !monotone {
						t.Fatal("the computed envelope dips: the case exercises nothing")
					}
					res, err := AnalyzeMACDelay(in, p, Options{Workspace: &ws})
					if err != nil {
						t.Fatal(err)
					}
					if res.BufferBits != wantF || res.Delay != wantChi {
						t.Errorf("AnalyzeMACDelay with a buffer: F = %v, chi = %v; exhaustive scan %v, %v", res.BufferBits, res.Delay, wantF, wantChi)
					}
				}
				t.Logf("busy %.0f rotations, full grid %d points, assembled %d delay-only and %d with F, evals %d (earlier %d)", busy/ring.TTRT, full, points[0], points[1], evals, c.parentEvals[k])
				if evals > c.parentEvals[k] {
					t.Errorf("%d envelope evaluations, the earlier scan spent %d", evals, c.parentEvals[k])
				}
			})
		}
	}
}

// noBurstRule is a descriptor type from outside package traffic, so
// traffic.BurstBound has no rule for it and no line stops its grid. It
// evaluates and enumerates its breakpoints as the descriptor it wraps.
type noBurstRule struct{ traffic.Descriptor }

func (n noBurstRule) AppendBreakpoints(dst []float64, horizon float64) []float64 {
	return traffic.AppendBreakpoints(dst, n.Descriptor, horizon)
}

// withoutBurstRule wraps in as a noBurstRule and checks that its padded σ is
// +Inf, which is what the no-line cases exercise.
func withoutBurstRule(t *testing.T, in traffic.Descriptor) traffic.Descriptor {
	t.Helper()
	d := noBurstRule{in}
	if sigma, _ := paddedLine(d); !math.IsInf(sigma, 1) {
		t.Fatalf("a descriptor without a burst rule has the burst bound %v: the case exercises nothing", sigma)
	}
	return d
}

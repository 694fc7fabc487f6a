package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// fullProbe is what every bisection probe computed before the verdict-only
// probes: the whole network's delay map, then the conjunctions over it. It is
// the reference Feasible and FeasibleWithin are held to. ref == nil asks for
// the deadline conjunct alone.
func fullProbe(t *testing.T, s *ProbeSession, standing []*Connection, cand *Connection, a allocation, ref map[string]float64, tol float64) bool {
	t.Helper()
	delays, err := s.Delays(a.hs, a.hr)
	if err != nil {
		return false
	}
	if !meetsDeadlines(standing, cand, delays) {
		return false
	}
	for id, dMax := range ref {
		if !units.WithinRel(delays[id], dMax, tol) {
			return false
		}
	}
	return true
}

// TestVerdictOnlyProbesMatchFullProbes: over the 120 scenarios of the fusion
// harness's generator — the last connection drawn as the candidate, the rest
// standing, deadlines tightened at random so that the verdict turns on every
// server of the path somewhere — and at least 16 points of each allocation
// segment (its ends, the feasibility threshold α* and its neighbours at the
// bisection's resolution, a spread between), the verdict-only feasibility
// probe equals meetsDeadlines over the full delay map and the equal-delays
// probe equals the full map's conjunction. Every comparison runs twice: on a
// pair of fresh analyzers per point, and along one session per side that
// carries its caches from point to point the way a bisection does — where
// the verdict-only side has skipped analyses the full side ran.
func TestVerdictOnlyProbesMatchFullProbes(t *testing.T) {
	net := defaultNet(t)
	gen := newScenarioGen(t, net, 20250806)
	rng := rand.New(rand.NewSource(15))
	opts := Options{}.withDefaults()

	session := func(standing []*Connection, cand *Connection) *ProbeSession {
		an, err := NewAnalyzer(net, AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := an.NewProbeSession(standing, cand)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cutNames := [...]string{cutSrcMAC: "sender MAC", cutPort: "port", cutDstMAC: "receiver MAC", cutOther: "other connection"}
	var before [len(cutNames)]uint64
	for cut := cutSrcMAC; cut <= cutOther; cut++ {
		before[cut] = mProbeCutoffs[cut].Value()
	}
	verdicts := map[string]int{}
	for sc := 0; sc < 120; sc++ {
		conns := gen.next("v", sc)
		for _, c := range conns {
			c.Deadline = []float64{0.030, 0.045, 0.060, 0.120}[rng.Intn(4)]
		}
		standing, cand := conns[:len(conns)-1], conns[len(conns)-1]
		seg := searchSegment(opts, cand.Route, 2.5e-3, 2.5e-3)

		// The reference bisection gives α* and the delays at the maximum.
		refSession := session(standing, cand)
		var delaysMax map[string]float64
		alphas := []float64{0, 1}
		if fullProbe(t, refSession, standing, cand, seg.p1, nil, 0) {
			delaysMax, _ = refSession.Delays(seg.p1.hs, seg.p1.hr)
			aStar := bisect(opts, seg, 0, func(a allocation) bool {
				return fullProbe(t, refSession, standing, cand, a, nil, 0)
			})
			step := math.Ldexp(1, -opts.SearchIters)
			alphas = append(alphas, aStar, math.Max(0, aStar-step), math.Min(1, aStar+step))
		}
		for len(alphas) < 16 {
			alphas = append(alphas, rng.Float64())
		}

		fullWarm, onlyWarm := session(standing, cand), session(standing, cand)
		for _, alpha := range alphas {
			a := seg.at(alpha)
			for _, side := range []struct {
				name       string
				full, only *ProbeSession
			}{
				{"fresh analyzers", session(standing, cand), session(standing, cand)},
				{"one session", fullWarm, onlyWarm},
			} {
				want := fullProbe(t, side.full, standing, cand, a, nil, 0)
				if got := side.only.Feasible(a.hs, a.hr); got != want {
					t.Fatalf("scenario %d, α=%v, %s: Feasible = %v, meetsDeadlines(Delays) = %v", sc, alpha, side.name, got, want)
				}
				verdicts[map[bool]string{true: "feasible", false: "infeasible"}[want]]++
				if delaysMax == nil {
					continue
				}
				want = fullProbe(t, side.full, standing, cand, a, delaysMax, equalTolerance)
				if got := side.only.FeasibleWithin(a.hs, a.hr, delaysMax, equalTolerance); got != want {
					t.Fatalf("scenario %d, α=%v, %s: FeasibleWithin = %v, the full map's conjunction = %v", sc, alpha, side.name, got, want)
				}
				verdicts[map[bool]string{true: "equal", false: "unequal"}[want]]++
			}
		}
	}
	t.Logf("verdicts compared: %v", verdicts)
	for _, v := range []string{"feasible", "infeasible", "equal", "unequal"} {
		if verdicts[v] < 100 {
			t.Errorf("only %d %s verdicts among %v: the harness exercises less than it claims", verdicts[v], v, verdicts)
		}
	}
	for cut := cutSrcMAC; cut <= cutOther; cut++ {
		if mProbeCutoffs[cut].Value() == before[cut] {
			t.Errorf("no probe was cut off at the %s", cutNames[cut])
		}
	}
}

// TestPartialSumNeverExceedsTotal: for random breakdowns — receiver-MAC
// delays of zero, of one ulp, and of a million times everything else among
// them — the Eq. 7 sum over any prefix of the path (the bound a verdict-only
// probe stops on) never exceeds the sum over the whole path, and with nothing
// missing it is the total bit for bit. Both hold only while the two are taken
// in the same order.
func TestPartialSumNeverExceedsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	delay := func() float64 { return math.Exp(rng.Float64()*20-18) * float64(rng.Intn(8)) / 7 }
	for trial := 0; trial < 20000; trial++ {
		bd := Breakdown{SrcMAC: delay(), Shaper: delay(), Constant: delay()}
		for k := rng.Intn(5); k > 0; k-- {
			bd.Ports = append(bd.Ports, PortDelay{Delay: delay()})
		}
		rest := bd.sum()
		switch trial % 4 {
		case 1:
			bd.DstMAC = math.Nextafter(0, 1)
		case 2:
			bd.DstMAC = 1e6 * rest
		case 3:
			bd.DstMAC = delay()
		}
		total := bd.sum()
		for k := 0; k <= len(bd.Ports); k++ {
			partial := bd
			partial.DstMAC = 0
			partial.Ports = bd.Ports[:k]
			if bound := partial.sum(); bound > total {
				t.Fatalf("%+v: the sum over %d of %d ports without the receiver MAC is %v, above the total %v", bd, k, len(bd.Ports), bound, total)
			}
		}
		if bd.DstMAC == 0 && rest != total {
			t.Fatalf("%+v: two sums of the same breakdown differ: %v and %v", bd, rest, total)
		}
	}
}

// TestVerdictCacheCap fills the verdict cache past verdictCacheCap with
// distinct previews (one deadline each, so one key each) and requires that
// it never holds more than the cap, and that it was cleared on reaching it.
func TestVerdictCacheCap(t *testing.T) {
	net := defaultNet(t)
	p, err := NewController(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cacheLen := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.cache)
	}
	src, err := traffic.NewPeriodic(20e3, 0.010, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	cleared := false
	for i := 0; i < verdictCacheCap+10; i++ {
		before := cacheLen()
		spec := ConnSpec{
			ID:       fmt.Sprintf("c%d", i),
			Src:      topo.HostID{Ring: 0, Index: 0},
			Dst:      topo.HostID{Ring: 1, Index: 0},
			Source:   src,
			Deadline: 0.05 + float64(i)*1e-6,
		}
		if _, err := p.PreviewAdmission(spec); err != nil {
			t.Fatal(err)
		}
		switch n := cacheLen(); {
		case n > verdictCacheCap:
			t.Fatalf("preview %d: the cache holds %d entries, over the cap %d", i, n, verdictCacheCap)
		case n < before:
			if before != verdictCacheCap || n != 1 {
				t.Fatalf("preview %d: the cache went from %d to %d entries; want a clear at the cap %d", i, before, n, verdictCacheCap)
			}
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("the cache never reached its cap")
	}
}

package core

import (
	"math"

	"fafnet/internal/topo"
)

// This file is the CAC decision algorithm of Section 5.3 as a pure function
// of the standing connection set, the per-ring availabilities, and the
// candidate specification. Everything stateful — bandwidth bookkeeping, the
// admitted set — stays with the caller: Sharded evaluates against an
// immutable snapshot and commits by publishing its successor, and the
// tests' serial oracle runs the same function against a plain map.

// decideAgainst runs steps 2–5 of the admission algorithm — feasibility at
// the segment maximum, the (H^min_need, H^max_need) binary searches, and the
// β interpolation (Eq. 35–36) — against a fixed view of the world: the
// standing connections (sorted by id, candidate excluded) and dec, which
// carries the per-ring available synchronous bandwidth (Eq. 26–27) of a
// candidate that has already passed the availability floor (steps 1–2). It
// commits nothing. On an admit verdict the returned Decision has Admitted,
// Reason, HS, HR, Delays, and Stages populated and the returned candidate
// carries the route; the caller is responsible for charging the rings and
// recording the connection (or discarding both, for previews). A non-nil
// error is an analysis failure, not a rejection.
func decideAgainst(an *Analyzer, opts Options, standing []*Connection, dec Decision, spec ConnSpec, route topo.Route) (Decision, *Connection, error) {
	cand := &Connection{ConnSpec: spec, Route: route}
	seg := searchSegment(opts, route, dec.HSMaxAvail, dec.HRMaxAvail)

	// The probe session reuses every analysis result the candidate's
	// allocation provably cannot change.
	session, err := an.NewProbeSession(standing, cand)
	if err != nil {
		return Decision{}, nil, err
	}
	counted := func() {
		dec.Probes++
		mProbes.Inc()
	}
	// The two probes whose delay maps are reported — the segment maximum and
	// the chosen allocation — evaluate the whole network.
	probe := func(a allocation) (bool, map[string]float64) {
		counted()
		delays, err := session.Delays(a.hs, a.hr)
		if err != nil {
			// Structural errors cannot occur for specs validated above;
			// treat defensively as infeasible.
			return false, nil
		}
		return meetsDeadlines(standing, cand, delays), delays
	}

	// Step 2: feasibility at the segment's maximum point.
	okMax, delaysMax := probe(seg.p1)
	if !okMax {
		dec.Reason = ReasonInfeasible
		return dec, cand, nil
	}

	// Step 3: minimum needed allocation — the smallest feasible point. The
	// caller-side guarantee (α=1 is feasible) and Theorems 3–4 make the
	// feasible subset of the segment an interval ending at 1. The bisections
	// keep one boolean per probe, so their probes compute only that.
	alphaMin := bisect(opts, seg, 0, func(a allocation) bool {
		counted()
		return session.Feasible(a.hs, a.hr)
	})
	minAlloc := seg.at(alphaMin)
	dec.HSMinNeed, dec.HRMinNeed = minAlloc.hs, minAlloc.hr

	// Step 4: maximum needed allocation — the smallest point whose delays
	// match the maximum allocation's within the configured tolerance
	// (Eq. 31–33). Delays vary monotonically toward their α=1 values along
	// the segment, so the equality set too is an interval ending at 1.
	alphaEq := bisect(opts, seg, alphaMin, func(a allocation) bool {
		counted()
		return session.FeasibleWithin(a.hs, a.hr, delaysMax, equalTolerance)
	})
	maxAlloc := seg.at(alphaEq)
	dec.HSMaxNeed, dec.HRMaxNeed = maxAlloc.hs, maxAlloc.hr

	// Step 5: β interpolation (Eq. 35–36).
	chosen := allocation{
		hs: minAlloc.hs + opts.Beta*(maxAlloc.hs-minAlloc.hs),
		hr: minAlloc.hr + opts.Beta*(maxAlloc.hr-minAlloc.hr),
	}
	ok, delays := probe(chosen)
	if !ok {
		// Convexity (Theorem 3–4) makes this unreachable in exact
		// arithmetic; numeric quantization can still surface it. Fall back
		// to the segment maximum, which was verified feasible. The probe
		// session's scratch evaluation holds the failed allocation, so no
		// Stages decomposition is reported for this (rare) path.
		chosen = seg.p1
		delays = delaysMax
	} else if bd, bderr := session.Breakdown(spec.ID); bderr == nil {
		// The scratch evaluation is warm from the probe just run at the
		// chosen allocation, so assembling the decomposition re-runs no
		// analysis.
		dec.Stages = &bd
	}

	dec.Admitted = true
	dec.Reason = ReasonAdmitted
	dec.HS, dec.HR = chosen.hs, chosen.hr
	dec.Delays = delays
	return dec, cand, nil
}

// searchSegment builds the allocation segment for the configured rule.
func searchSegment(opts Options, route topo.Route, hsMax, hrMax float64) segment {
	minAbs := opts.HMinAbs
	if !route.CrossesBackbone {
		return segment{p0: allocation{hs: minAbs}, p1: allocation{hs: hsMax}}
	}
	switch opts.Rule {
	case RuleFixedSplit:
		m := math.Min(hsMax, hrMax)
		return segment{p0: allocation{minAbs, minAbs}, p1: allocation{m, m}}
	case RuleSenderBiased:
		return segment{p0: allocation{hsMax, minAbs}, p1: allocation{hsMax, hrMax}}
	default: // RuleProportional (the paper's Rule 2)
		return segment{p0: allocation{minAbs, minAbs}, p1: allocation{hsMax, hrMax}}
	}
}

// meetsDeadlines checks Eq. 24–25 against a computed delay map: every
// standing connection and the candidate must meet its deadline. The
// comparisons are exact, with no tolerance in the connection's favour: a
// bound that reads above the deadline by any margin is a miss.
func meetsDeadlines(standing []*Connection, cand *Connection, delays map[string]float64) bool {
	for _, conn := range standing {
		if delays[conn.ID] > conn.Deadline {
			return false
		}
	}
	return delays[cand.ID] <= cand.Deadline //lint:allow floatcmp deadlines err toward rejection: a delay even one rounding above the deadline misses it
}

// bisect locates the smallest α in [from, 1] whose allocation satisfies holds,
// for a predicate that is true at α=1 and whose true set is an interval
// ending there.
func bisect(opts Options, seg segment, from float64, holds func(allocation) bool) float64 {
	if holds(seg.at(from)) {
		return from
	}
	lo, hi := from, 1.0 // false at lo, true at hi
	for i := 0; i < opts.SearchIters; i++ {
		mBisectSteps.Inc()
		mid := (lo + hi) / 2
		if holds(seg.at(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

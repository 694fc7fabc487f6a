package traffic

import "math"

// BurstBound returns σ, a burst bound of d against its own long-term rate:
//
//	d.Bits(t) <= σ + d.LongTermRate()·t   for every t > 0,
//
// in exact arithmetic on the formulas Bits evaluates. Computed Bits values
// may exceed it by float rounding and by the relative snapping of
// units.FloorDiv — a relative error of the order of units.RelTol on σ and
// on ρ·t — so a caller that needs the inequality on computed values pads
// both. The result is +Inf when d holds a type without a rule: a type from
// outside the package, or the *Aggregate a summed flat holds as its tail.
// There is one rule per descriptor type:
//
//   - CBR: 0; LeakyBucket: its σ;
//   - Periodic: C·(1 − ρ/Peak), the excess at the end of a burst;
//   - DualPeriodic: the largest excess over the short-period bursts of one
//     long period (see dualPeriodicBurst);
//   - Delayed: σ + ρ·Delay, or 0 when the line-rate cap is below the inner
//     rate (the long-term rate is then the cap, and A ≤ Cap·t);
//   - RateCapped: σ, or 0 when the cap is below the inner rate;
//   - Quantized: σ·Out/Quantum + Out, since ⌈x/q⌉ ≤ x/q + 1;
//   - Aggregate: the sum over the members, as the rates add;
//   - Min: the σ of the member whose rate is the minimum's;
//   - *Flat: its tail chain's, cached on the flat (a flat evaluates to its
//     chain's values up to float re-association);
//   - *View: its tail chain's, read off the fused chain's parameters without
//     building it, cached on the view.
//
// BurstBound serves the closed-form Theorem 1 bound a bisection probe tries
// before it builds a candidate grid, so it sits on the probe's hot path.
func BurstBound(d Descriptor) float64 {
	switch v := d.(type) {
	case *Flat:
		return v.burstBound()
	case *View:
		return v.burstBound()
	case CBR:
		return 0
	case LeakyBucket:
		return v.Sigma
	case Periodic:
		return max(0, v.C-v.LongTermRate()*(v.C/v.PeakBps))
	case DualPeriodic:
		return dualPeriodicBurst(v)
	case Delayed:
		return v.burstBound()
	case RateCapped:
		return v.burstBound()
	case Quantized:
		return BurstBound(v.Inner)*(v.OutBits/v.QuantumBits) + v.OutBits
	case Aggregate:
		var sigma float64
		for _, m := range v.members {
			sigma += BurstBound(m)
		}
		return sigma
	case Min:
		// The member LongTermRate picks: the first of the smallest rate.
		best, rho := v.members[0], v.members[0].LongTermRate()
		for _, m := range v.members[1:] {
			if r := m.LongTermRate(); r < rho {
				best, rho = m, r
			}
		}
		return BurstBound(best)
	default:
		return math.Inf(1)
	}
}

// burstBound is BurstBound's Delayed rule.
func (d Delayed) burstBound() float64 {
	rho := d.Inner.LongTermRate()
	if d.CapBps > 0 && d.CapBps < rho {
		return 0
	}
	return BurstBound(d.Inner) + rho*d.Delay
}

// burstBound is BurstBound's RateCapped rule.
func (r RateCapped) burstBound() float64 {
	if r.CapBps < r.Inner.LongTermRate() {
		return 0
	}
	return BurstBound(r.Inner)
}

// burstBound returns BurstBound of the flat's tail, computed on first use.
// A flat's values never change after it is built (the merge kernel that
// rewrites a scratch flat drops the cached value with the rest of its
// caches), so the chain is walked once per flat.
func (f *Flat) burstBound() float64 {
	if !f.burstOK {
		f.burst, f.burstOK = BurstBound(f.tail), true
	}
	return f.burst
}

// dualPeriodicBurst is the DualPeriodic rule. A − ρt repeats with the long
// period, so σ is the largest excess inner(r) − ρ·r over r in [0, P1), where
// inner is the short-period staircase capped at C1. Burst j (starting at
// j·P2) raises the excess while it ramps at the peak rate, so the excess of
// burst j peaks where its ramp ends:
//
//	g(j) = min(C1, (j+1)·C2) − ρ·(j·P2 + min(C2, C1 − j·C2)⁺/Peak).
//
// From one burst to the next g grows by C2 − ρ·P2 ≥ 0 while the budget C1
// does not bind, and falls by ρ·P2 once it has bound, so the maximum is at
// the first burst, the burst where the budget binds (and its neighbours, for
// float safety) or the period's last burst. A ramp cut short by the end of
// its short or long period only lowers the excess, so g bounds it too.
func dualPeriodicBurst(v DualPeriodic) float64 {
	rho := v.LongTermRate()
	last := math.Ceil(v.P1/v.P2) - 1 // the last burst starting inside [0, P1)
	bind := math.Ceil(v.C1/v.C2) - 1 // the burst during which C1 binds
	sigma := v.burstExcess(0, rho)
	for _, j := range [...]float64{bind - 1, bind, bind + 1, last} {
		if j > 0 && j <= last {
			sigma = max(sigma, v.burstExcess(j, rho))
		}
	}
	return max(0, sigma)
}

// burstExcess is g(j) of dualPeriodicBurst.
func (v DualPeriodic) burstExcess(j, rho float64) float64 {
	return min(v.C1, (j+1)*v.C2) - rho*(j*v.P2+max(0, min(v.C2, v.C1-j*v.C2))/v.PeakBps)
}

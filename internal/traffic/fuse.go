package traffic

import "math"

// Fuse collapses a transform chain algebraically, returning a descriptor
// whose Bits function is pointwise identical (in exact arithmetic) to the
// input's. Only value-preserving rewrites are applied, so fusing never
// loosens or tightens an envelope — it only removes evaluation depth. The
// rules, written with D[d,c](x)(I) = min(c·I, x(I+d)) (c = 0 meaning "no
// cap") and R[r](x)(I) = min(r·I, x(I)):
//
//	D[d2,c2]∘D[d1,0]    = D[d1+d2, c2]                  (inner uncapped)
//	D[d2,c2]∘D[d1,c1]   = D[d1+d2, c2]  when c1 >= c2>0 (inner cap dominated:
//	                                     c2·I <= c1·I <= c1·(I+d2))
//	D[d,c]∘R[r]         = D[d, c]       when r >= c > 0 (same domination)
//	R[r]∘D[d,c]         = D[d, min⁺(r,c)]               (both caps cap the
//	                                     same output; min⁺ ignores c = 0)
//	R[r2]∘R[r1]         = R[min(r1,r2)]
//	D[0,c]              = R[c], and D[0,0] = identity
//	Q[q2,o2]∘Q[q1,o1]   = Q[q1, o2]     when o1 == q2   (⌈n·q2/q2⌉ = n)
//
// Aggregate and Min members are fused recursively and nested Aggregates are
// flattened (Σ is associative). Chains the analysis builds — k Delayed
// stages with one shared port capacity over a Quantized conversion — all
// collapse to depth ≤ 3, turning the O(depth) cost of every Bits call into
// O(1) per member.
//
// Caveat: fusing changes only the *representation*. Float-level results can
// differ in the last ulp where re-association changes rounding (d1+d2
// summed once instead of applied in sequence); every consumer compares
// delays with units tolerances, which absorb this.
func Fuse(d Descriptor) Descriptor { return fuse(d, Fuse) }

// FuseRoot is Fuse for a descriptor whose operands are fused already — a
// transform over the tail of a flat the analysis built, or over a lowered
// source: it applies only the rules rooted at d, so its result equals
// Fuse(d) without rebuilding the chain beneath. On a Delayed, RateCapped or
// Quantized root it costs at most one transform value, and none when no rule
// applies: a Delayed with a delay over anything but a Delayed or a
// RateCapped, or a Quantized over anything but a Quantized, is d itself.
func FuseRoot(d Descriptor) Descriptor {
	switch v := d.(type) {
	case Delayed:
		if !isDelayedOrCapped(v.Inner) && v.Delay != 0 {
			return d
		}
	case Quantized:
		if _, ok := v.Inner.(Quantized); !ok {
			return d
		}
	}
	return fuse(d, fused)
}

// isDelayedOrCapped reports whether d is a Delayed or a RateCapped, the two
// inners a Delayed-rooted rule can merge.
func isDelayedOrCapped(d Descriptor) bool {
	switch d.(type) {
	case Delayed, RateCapped:
		return true
	}
	return false
}

// fused is the identity on a descriptor that is fused already.
func fused(d Descriptor) Descriptor { return d }

// fuse applies the rules rooted at d over its operands, each passed through
// sub first: Fuse to fuse them, fused when they are.
func fuse(d Descriptor, sub func(Descriptor) Descriptor) Descriptor {
	switch v := d.(type) {
	case Delayed:
		return fuseDelayed(Delayed{Inner: sub(v.Inner), Delay: v.Delay, CapBps: v.CapBps})
	case RateCapped:
		return fuseRateCapped(RateCapped{Inner: sub(v.Inner), CapBps: v.CapBps})
	case Quantized:
		inner := sub(v.Inner)
		if q, ok := inner.(Quantized); ok && q.OutBits == v.QuantumBits { //lint:allow floatcmp fusion is value-preserving only when the units match exactly; near-equal quanta must keep both stages
			// ⌈⌈A/q1⌉·o1/q2⌉·o2 with o1 = q2 is ⌈A/q1⌉·o2: the inner output
			// is already a whole multiple of the outer quantum.
			return Quantized{Inner: q.Inner, QuantumBits: q.QuantumBits, OutBits: v.OutBits}
		}
		return Quantized{Inner: inner, QuantumBits: v.QuantumBits, OutBits: v.OutBits}
	case Aggregate:
		members := make([]Descriptor, 0, len(v.members))
		for _, m := range v.members {
			f := sub(m)
			if nested, ok := f.(Aggregate); ok {
				members = append(members, nested.members...)
				continue
			}
			members = append(members, f)
		}
		return Aggregate{members: members}
	case Min:
		members := make([]Descriptor, len(v.members))
		for i, m := range v.members {
			members[i] = sub(m)
		}
		return Min{members: members}
	default:
		return d
	}
}

// fuseDelayed applies the Delayed-rooted rules to an already-fused inner.
func fuseDelayed(d Delayed) Descriptor {
	for {
		switch in := d.Inner.(type) {
		case Delayed:
			if in.CapBps == 0 || (d.CapBps > 0 && in.CapBps >= d.CapBps) { //lint:allow floatcmp exact domination bound: a cap even one ulp below the outer one may bind, so tolerant comparison would over-fuse
				d = Delayed{Inner: in.Inner, Delay: in.Delay + d.Delay, CapBps: d.CapBps}
				continue
			}
		case RateCapped:
			if d.CapBps > 0 && in.CapBps >= d.CapBps { //lint:allow floatcmp exact domination bound: a cap even one ulp below the outer one may bind, so tolerant comparison would over-fuse
				d = Delayed{Inner: in.Inner, Delay: d.Delay, CapBps: d.CapBps}
				continue
			}
		}
		break
	}
	if d.Delay == 0 {
		if d.CapBps == 0 {
			return d.Inner
		}
		return fuseRateCapped(RateCapped{Inner: d.Inner, CapBps: d.CapBps})
	}
	return d
}

// fuseRateCapped applies the RateCapped-rooted rules to an already-fused
// inner.
func fuseRateCapped(r RateCapped) Descriptor {
	for {
		switch in := r.Inner.(type) {
		case RateCapped:
			r = RateCapped{Inner: in.Inner, CapBps: math.Min(r.CapBps, in.CapBps)}
			continue
		case Delayed:
			c := r.CapBps
			if in.CapBps > 0 {
				c = math.Min(c, in.CapBps)
			}
			return fuseDelayed(Delayed{Inner: in.Inner, Delay: in.Delay, CapBps: c})
		}
		break
	}
	return r
}

package core

import (
	"slices"
	"sort"

	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// flatHorizon is the window (seconds) over which the analyzer materializes
// flat breakpoint arrays: a few TTRTs, enough for the mux busy periods and the
// busy intervals of lightly loaded rings, while keeping every cached array
// small. A scan that walks deeper — a receiver MAC near its stability limit
// has a busy interval of hundreds of rotations — evaluates the few hundred
// points it visits beyond the window through the flat's exact tail chain;
// lowering the envelope out to that depth first would cost ten thousand
// vertices for an array nothing reads again. The constant trades speed, never
// correctness.
const flatHorizon = 0.025

// flatRebuildDeltas bounds how many incremental add/subtract updates a
// materialized per-port aggregate accumulates before it is rebuilt from its
// member flats. Each delta leaves float dust at the cancelled breakpoints
// (compacted away, but worth refreshing) and can only shrink the shared
// horizon, so a periodic rebuild bounds both drifts.
const flatRebuildDeltas = 64

// flatCompactTol is the relative tolerance for compacting delta-updated
// aggregates: generous enough to drop the ~1-ulp residue of an add/subtract
// cancellation, orders of magnitude below units.RelTol so compaction never
// moves a value the analyses could see.
const flatCompactTol = 1e-12

// flatEnabled reports whether the flat fast path applies: the lowering
// operates on fused chains, so DisableFusion implies DisableFlat.
func (a *Analyzer) flatEnabled() bool { return !a.opts.DisableFusion && !a.opts.DisableFlat }

// flatEntering returns connection c's envelope entering the stage-th port as
// a flat breakpoint array, or nil when the chain has no exact lowering (the
// caller keeps the closure-tree path). Results — including the nil verdict —
// are memoized per evaluation; stage-0 flats are additionally cached across
// evaluations next to the fused envelope they lower.
func (ev *evaluation) flatEntering(c *Connection, stage int) *traffic.Flat {
	if !ev.a.flatEnabled() {
		return nil
	}
	key := envKey{connID: c.ID, stage: stage}
	if f, ok := ev.flatMemo[key]; ok {
		return f
	}
	f := ev.buildFlat(c, stage)
	ev.flatMemo[key] = f
	return f
}

func (ev *evaluation) buildFlat(c *Connection, stage int) *traffic.Flat {
	env, err := ev.envelopeEntering(c, stage)
	if err != nil {
		return nil
	}
	if stage == 0 {
		// envelopeEntering has just filled (or validated) the stage-0 cache
		// entry for exactly this allocation; the lowered form lives beside
		// the fused chain so later evaluations reuse the same array — which
		// also keeps the pointer stable, the identity the incremental port
		// aggregates diff against.
		byH := ev.a.stage0Cache[c.ID]
		e, ok := byH[c.HS]
		if !ok {
			return nil
		}
		if !e.flatTried {
			e.flat = traffic.Flatten(e.env, flatHorizon)
			e.flatTried = true
			byH[c.HS] = e
			if e.flat != nil {
				mFlatLowerings.Inc()
			} else {
				mFlatFallbacks.Inc()
			}
		}
		return e.flat
	}
	prev := ev.flatEntering(c, stage-1)
	if prev == nil {
		return nil
	}
	if _, err := ev.muxDelay(c.Route.Ports[stage-1]); err != nil {
		return nil
	}
	// The stage-k flat is a pure function of the sender allocation and the
	// upstream port delays; cache it across evaluations keyed by exactly
	// those inputs. An admission bisection (and the admit/release cycle of a
	// CAC) revisits the same global states, so the same keys — and the same
	// pointer-stable arrays, which portMux and dstCache key results by —
	// recur probe after probe.
	ds := make([]float64, stage)
	for i := range ds {
		ds[i], _ = ev.muxDelay(c.Route.Ports[i]) // memoized; error handled above
	}
	entries := ev.a.stageFlats[c.ID]
	for i := range entries {
		if e := &entries[i]; e.stage == stage && e.h == c.HS && slices.Equal(e.ds, ds) {
			return e.flat
		}
	}
	f := prev.ShiftCap(ds[stage-1], ev.a.net.PortCapacity(), flatHorizon, env)
	if f != nil {
		if len(entries) >= maxStageFlatEntries {
			entries = append(entries[:0], entries[len(entries)/2:]...)
		}
		ev.a.stageFlats[c.ID] = append(entries, stageFlatEntry{stage: stage, h: c.HS, ds: ds, flat: f})
	}
	return f
}

// portAggState is one materialized per-port aggregate envelope: the flat sum
// of the member flats most recently fed to the port's mux analysis, plus the
// scratch array the delta updates ping-pong against.
type portAggState struct {
	members map[string]*traffic.Flat // member id → the flat its sum contains
	sum     *traffic.Flat
	scratch *traffic.Flat
	// tail is the reusable members-union tail installed on sum after every
	// update: beyond-window evaluations and breakpoint unions go through the
	// member flats' own caches instead of re-walking descriptor chains.
	tail   *traffic.MemberTail
	deltas int
}

// portAggregate returns the materialized aggregate envelope of port p over
// the given members, delta-updating the cached sum: members whose flat is
// unchanged (same array, guaranteed by the stage-0 cache's pointer
// stability) cost nothing, departed or changed members are subtracted, new
// ones added — so an admission probe, which changes only the candidate's
// allocation, costs one subtract and one add instead of a k-way re-sum, and
// admits/releases between sessions delta the same materialized state.
// The sum's tail is the members-union over the flats themselves, so
// beyond-window evaluations and breakpoint unions ride the members' caches;
// when nothing changed since the last call the sum — including its cached
// breakpoint list — is returned untouched.
func (a *Analyzer) portAggregate(p topo.PortID, ids []string, flats []*traffic.Flat) *traffic.Flat {
	st := a.portAgg[p]
	if st == nil {
		st = &portAggState{
			members: make(map[string]*traffic.Flat, len(ids)+1),
			tail:    traffic.NewMemberTail(),
		}
		a.portAgg[p] = st
	}

	// Diff the wanted member set against the materialized one. Stale ids are
	// collected and sorted so the subtraction order — and with it the float
	// dust of the updates — is deterministic run to run.
	var stale []string
	for id, f := range st.members {
		keep := false
		for i, wid := range ids {
			if wid == id && flats[i] == f {
				keep = true
				break
			}
		}
		if !keep {
			stale = append(stale, id)
		}
	}
	fresh := 0
	for i, id := range ids {
		if st.members[id] != flats[i] {
			fresh++
		}
	}

	// Unchanged member set: the materialized sum — tail, cached breakpoint
	// union and segment cursor included — is current. The grid assembly of
	// the mux scan then costs a prefix lookup, not a chain walk.
	if st.sum != nil && len(stale)+fresh == 0 {
		return st.sum
	}

	retail := func() {
		members := make([]traffic.Descriptor, len(flats))
		for i, f := range flats {
			members[i] = f
		}
		st.tail.SetMembers(members...)
		st.sum.Retail(st.tail)
	}

	if st.sum == nil || st.deltas+len(stale)+fresh > flatRebuildDeltas || len(stale)+fresh > len(ids)/2+1 {
		st.sum = traffic.SumFlats(zeroTail{}, flats...)
		st.scratch = nil
		st.deltas = 0
		clear(st.members)
		for i, id := range ids {
			st.members[id] = flats[i]
		}
		retail()
		mFlatAggRebuilds.Inc()
		return st.sum
	}

	if st.scratch == nil {
		st.scratch = &traffic.Flat{}
	}
	sort.Strings(stale)
	for _, id := range stale {
		traffic.SubInto(st.scratch, st.sum, st.members[id])
		st.sum, st.scratch = st.scratch, st.sum
		delete(st.members, id)
		st.deltas++
		mFlatAggDeltas.Inc()
	}
	for i, id := range ids {
		if st.members[id] == flats[i] {
			continue
		}
		traffic.SumInto(st.scratch, st.sum, flats[i])
		st.sum, st.scratch = st.scratch, st.sum
		st.members[id] = flats[i]
		st.deltas++
		mFlatAggDeltas.Inc()
	}
	// Cancelled breakpoints of departed members survive as collinear
	// vertices carrying ~1-ulp residue; compacting keeps the array (and
	// every later merge against it) bounded.
	st.sum.Compact(flatCompactTol)
	retail()
	return st.sum
}

// zeroTail seeds SumFlats rebuilds; portAggregate installs the real
// members-union tail immediately afterwards.
type zeroTail struct{}

func (zeroTail) Bits(float64) float64  { return 0 }
func (zeroTail) LongTermRate() float64 { return 0 }

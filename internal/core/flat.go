package core

import (
	"slices"

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
		// also keeps the pointer stable, the identity portMux and dstCache
		// key results by.
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

package traffic

import (
	"fmt"
	"sort"
)

// Memoized wraps a *stable* descriptor — one whose Bits function will not
// change for the lifetime of the wrapper — and caches its evaluations:
//
//   - Bits values are memoized exactly, keyed by the queried interval, so
//     repeated evaluation at the same grid points (the busy-period search
//     scans its grid twice, extremum searches revisit TTRT multiples, and
//     every CAC probe of one admission request re-walks the same stage-0
//     envelopes) costs one map lookup instead of a full chain walk;
//   - Breakpoints are computed once at the largest horizon seen, sorted and
//     deduplicated, and smaller-horizon queries answer with a binary-searched
//     prefix — sound because every breakpoint generator in this package
//     produces ascending points whose prefix below a horizon is exactly what
//     a direct smaller-horizon call would return (callers additionally clip
//     to their own horizon);
//   - the long-term rate is computed once.
//
// Because the cache stores exact inner evaluations, a Memoized descriptor is
// pointwise identical to its inner descriptor: it is a valid upper bound
// wherever the inner is, monotone wherever the inner is, and exact (not just
// within units.RelTol) at every queried point.
//
// Memoized is NOT safe for concurrent use; every analyzer that embeds one is
// itself documented single-threaded, and parallel drivers (sweeps,
// replications) give each worker its own analyzer.
type Memoized struct {
	inner Descriptor
	rho   float64
	bits  map[float64]float64
	bp    []float64 // sorted ascending, exact duplicates removed
	bpH   float64   // horizon bp was computed at (0 = not yet)
}

var _ Descriptor = (*Memoized)(nil)
var _ BreakpointProvider = (*Memoized)(nil)

// NewMemoized wraps d in an evaluation cache. Wrapping an existing *Memoized
// returns it unchanged.
func NewMemoized(d Descriptor) *Memoized {
	if m, ok := d.(*Memoized); ok {
		return m
	}
	return &Memoized{
		inner: d,
		rho:   d.LongTermRate(),
		bits:  make(map[float64]float64, 64),
	}
}

// Inner returns the wrapped descriptor.
func (m *Memoized) Inner() Descriptor { return m.inner }

// maxMemoPoints bounds the per-descriptor evaluation cache. Wrappers owned by
// one evaluation never get near it; long-lived wrappers (the analyzer's
// cross-evaluation stage-0 cache) see fresh query points on every probe, and
// without a bound the map would grow for the lifetime of the analyzer. Past
// the cap, new points evaluate through while the established hot set keeps
// answering from the map.
const maxMemoPoints = 1 << 16

// Bits implements Descriptor with exact per-interval memoization.
func (m *Memoized) Bits(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	if v, ok := m.bits[interval]; ok {
		return v
	}
	v := m.inner.Bits(interval)
	if len(m.bits) < maxMemoPoints {
		m.bits[interval] = v
	}
	return v
}

// LongTermRate implements Descriptor.
func (m *Memoized) LongTermRate() float64 { return m.rho }

// PeakRate reports the wrapped descriptor's peak, mirroring what Peak would
// compute on the inner descriptor directly.
func (m *Memoized) PeakRate() float64 { return Peak(m.inner) }

// Breakpoints implements BreakpointProvider. The returned slice is shared
// with the cache and must not be mutated by the caller.
func (m *Memoized) Breakpoints(horizon float64) []float64 {
	if horizon <= 0 {
		return nil
	}
	if m.bpH == 0 || horizon > m.bpH {
		var raw []float64
		if bp, ok := m.inner.(BreakpointProvider); ok {
			raw = bp.Breakpoints(horizon)
		}
		sorted := make([]float64, len(raw))
		copy(sorted, raw)
		sort.Float64s(sorted)
		// Remove exact duplicates only: CleanGrid drops them anyway, so the
		// downstream grids are unchanged, and near-duplicates keep their
		// distinct values for the Eps-clustering there to resolve.
		out := sorted[:0]
		for i, p := range sorted {
			if i > 0 && p == sorted[i-1] {
				continue
			}
			out = append(out, p)
		}
		m.bp = out
		m.bpH = horizon
	}
	// Prefix of points <= horizon; points above it would be clipped by every
	// caller (Grid and the transform breakpoint filters) regardless.
	idx := sort.SearchFloat64s(m.bp, horizon)
	for idx < len(m.bp) && m.bp[idx] == horizon { //lint:allow floatcmp a direct Breakpoints call returns points in (0,horizon]; only exactly-equal points belong in the prefix
		idx++
	}
	return m.bp[:idx]
}

// String implements fmt.Stringer.
func (m *Memoized) String() string {
	return fmt.Sprintf("Memoized(%d cached points, inner=%v)", len(m.bits), m.inner)
}

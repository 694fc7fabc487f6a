package core

import (
	"fmt"

	"fafnet/internal/units"
)

// Rule selects how the CAC picks the allocation segment on the H_S–H_R
// plane. RuleProportional is the paper's scheme (Section 5.3, Rule 2); the
// others exist as ablation baselines.
type Rule int

const (
	// RuleProportional searches along the line joining
	// (H^min_abs, H^min_abs) and (H_S^max_avai, H_R^max_avai), reserving
	// bandwidth from both rings in proportion to what each has available.
	RuleProportional Rule = iota
	// RuleFixedSplit always allocates the same absolute amount on both
	// rings, capped by the tighter ring.
	RuleFixedSplit
	// RuleSenderBiased grants the sender ring its full availability and
	// tunes only the receiver allocation.
	RuleSenderBiased
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case RuleProportional:
		return "proportional"
	case RuleFixedSplit:
		return "fixed-split"
	case RuleSenderBiased:
		return "sender-biased"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Options configures the admission controller. The zero value selects the
// paper's defaults (β = 0.5, proportional rule).
type Options struct {
	// Beta is the interpolation knob of Eq. 35–36: 0 allocates the minimum
	// needed, 1 the maximum needed. Defaults to 0.5.
	Beta float64
	// BetaSet marks Beta as explicitly chosen; allows Beta = 0.
	BetaSet bool
	// HMinAbs is H^min_abs: the smallest allocation worth granting (frames
	// shorter than this waste the ring in per-frame overhead). Defaults to
	// 50 µs.
	HMinAbs float64
	// SearchIters bounds each binary search (default 12).
	SearchIters int
	// Rule selects the allocation segment (default RuleProportional).
	Rule Rule
}

func (o Options) withDefaults() Options {
	if o.Beta == 0 && !o.BetaSet {
		o.Beta = 0.5
	}
	if o.HMinAbs <= 0 {
		o.HMinAbs = 50 * units.Microsecond
	}
	if o.SearchIters <= 0 {
		// Theorem 1 delays move in TTRT-sized quantization steps, so α
		// resolution beyond ~2^-12 cannot change any decision.
		o.SearchIters = 12
	}
	return o
}

// equalTolerance is the relative tolerance of the "same delays as the maximum
// allocation" test of Eq. 31–32: the quantized Theorem 1 delays move in
// TTRT-sized steps, so a tight tolerance inflates H^max_need without
// improving any delay.
const equalTolerance = 0.10

// Rejection reasons reported in Decision.Reason.
const (
	ReasonAdmitted      = "admitted"
	ReasonHostBusy      = "source host already originates a connection"
	ReasonNoBandwidth   = "insufficient synchronous bandwidth available"
	ReasonInfeasible    = "deadlines unsatisfiable even at maximum allocation"
	ReasonInvalidTarget = "invalid route"
)

// Decision reports the outcome of one admission request.
type Decision struct {
	// Admitted reports whether the connection was accepted and its
	// resources committed.
	Admitted bool
	// Reason explains a rejection (or states ReasonAdmitted).
	Reason string
	// HS and HR are the committed allocations (admitted only).
	HS, HR float64
	// HSMaxAvail and HRMaxAvail are Eq. 26–27 at request time.
	HSMaxAvail, HRMaxAvail float64
	// HSMinNeed/HRMinNeed and HSMaxNeed/HRMaxNeed bracket the β
	// interpolation (admitted only).
	HSMinNeed, HRMinNeed float64
	HSMaxNeed, HRMaxNeed float64
	// Delays maps every connection (existing and new) to its worst-case
	// end-to-end delay under the committed allocation (admitted only).
	Delays map[string]float64
	// Probes counts full-network feasibility evaluations performed.
	Probes int
	// Stages is the Eq. 7 per-server delay decomposition of the new
	// connection at the committed allocation. Present for admitted
	// decisions, except when numeric quantization forced the
	// segment-maximum fallback.
	Stages *Breakdown
	// Cache counts the analyzer cache traffic this decision generated.
	Cache CacheStats
}

// Controller is the connection admission controller of Section 5: it owns the
// admitted-connection set M and the per-ring synchronous-bandwidth ledgers.
// There is one implementation, Sharded; Controller is its name.
type Controller = Sharded

// allocation is one point on the H_S–H_R plane.
type allocation struct{ hs, hr float64 }

// segment is the search line of the CAC: P(α) = p0 + α·(p1 − p0).
type segment struct{ p0, p1 allocation }

func (s segment) at(alpha float64) allocation {
	return allocation{
		hs: s.p0.hs + alpha*(s.p1.hs-s.p0.hs),
		hr: s.p0.hr + alpha*(s.p1.hr-s.p0.hr),
	}
}

// BufferRequirement reports, per admitted connection, the worst-case MAC
// backlogs of Theorem 1 (Eq. 10): how much buffer the sender host and the
// receiving interface device must provision for loss-free operation.
type BufferRequirement struct {
	ConnID                       string
	SrcBufferBits, DstBufferBits float64
}

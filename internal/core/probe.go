package core

import (
	"errors"
	"fmt"

	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// ProbeSession accelerates the CAC's binary searches. Across the dozens of
// feasibility probes of one admission request, only the candidate's
// allocation changes — so only the FIFO ports the candidate flows through
// (and ports downstream of those, reached by connections that crossed a
// changed port first) can see different traffic. The session computes that
// tainted-port closure once, evaluates everything outside it once, and
// reuses those results for every probe:
//
//   - a port is tainted if the candidate traverses it, or if some connection
//     traverses a tainted port before it (its envelope at the later port
//     shifts with the earlier port's delay);
//   - every member of a tainted port is, by construction, an affected
//     connection, so untainted port delays depend only on unaffected state
//     and can be carried over verbatim;
//   - unaffected connections (no tainted port on their route) keep their
//     end-to-end delays verbatim.
type ProbeSession struct {
	a        *Analyzer
	existing []*Connection
	cand     *Connection

	cleanPortDelay map[topo.PortID]float64
	cleanDelay     map[string]float64
	affected       int

	// probe and scratch are reused across probes: the connection set is
	// identical every time (existing ∪ candidate), so the evaluation's maps
	// are cleared and re-seeded instead of reallocated for each of the up to
	// 2·SearchIters + 4 probes of an admission request.
	probe   *Connection
	scratch *evaluation
	// walked is the breakdown the verdict-only probes walk into: they read
	// its total and keep nothing, so one serves them all.
	walked Breakdown
	// rx carries the long-term rate into the candidate's receiver MAC; nil
	// on a same-ring route, which has none.
	rx *rxChain
}

// rxChain is the descriptor chain theorem1 builds into the candidate's
// receiver MAC — the lowered source, the sender MAC's output, the
// regulator's, the frame→cell conversion, the ports' output and the
// cell→frame reassembly — with every delay at zero. No delay enters a
// long-term rate: Delayed takes a min with its cap, Quantized scales by
// Out/Quantum, and traffic.Fuse, which turns a zero delay into a RateCapped
// or drops it, takes the same mins and, where it merges two conversions,
// scales by the same ratio, since the reassembly's Out/Quantum is 1. So the
// chain's long-term rate is, bit for bit, the one Theorem 1's stability test
// reads at the receiver at every allocation, whatever the upstream delays.
// Only the two conversions' quanta depend on the allocation; rate sets them.
// The chain is built once per session, by pointer, so a probe's rate
// allocates nothing.
type rxChain struct {
	send, recv *traffic.Quantized
}

// newRxChain builds c's chain over src, its lowered source, or returns nil
// when the regulator's envelope cannot be built (the sender side then fails
// every probe before the receiver).
func newRxChain(net *topo.Network, c *Connection, src *traffic.Flat) *rxChain {
	var pre traffic.Descriptor = &traffic.Delayed{Inner: src, CapBps: net.RingConfig(c.Src.Ring).BandwidthBps}
	if c.Shape != nil {
		bucket, err := traffic.NewLeakyBucket(c.Shape.SigmaBits, c.Shape.RhoBps, 0)
		if err != nil {
			return nil
		}
		m, err := traffic.NewMin(bucket, &traffic.Delayed{Inner: pre})
		if err != nil {
			return nil
		}
		pre = m
	}
	rx := &rxChain{send: &traffic.Quantized{Inner: pre}}
	var ports traffic.Descriptor = rx.send
	if len(c.Route.Ports) > 0 {
		ports = &traffic.Delayed{Inner: rx.send, CapBps: net.PortCapacity()}
	}
	rx.recv = &traffic.Quantized{Inner: ports}
	return rx
}

// rate returns the long-term rate entering c's receiver MAC at c's
// allocation (HS, HR): the quanta ifdev's conversions take at the two frame
// sizes, then the chain's rate.
func (rx *rxChain) rate(net *topo.Network, c *Connection) float64 {
	fs := net.RingConfig(c.Src.Ring).FrameBits(c.HS)
	rx.send.QuantumBits, rx.send.OutBits = fs, ifdev.FrameCellBits(fs)
	q := ifdev.FrameCellBits(net.RingConfig(c.Dst.Ring).FrameBits(c.HR))
	rx.recv.QuantumBits, rx.recv.OutBits = q, q
	return rx.recv.LongTermRate()
}

// NewProbeSession prepares probe acceleration for admitting cand among the
// existing connections. cand's allocations need not be set yet.
func (a *Analyzer) NewProbeSession(existing []*Connection, cand *Connection) (*ProbeSession, error) {
	if cand == nil {
		return nil, errors.New("core: probe session requires a candidate")
	}
	// The probes report every analysis error as a miss, so the one error a
	// validated spec can still carry is caught here, once per session. The
	// lowered source stays on the class's record for the sender MAC.
	src, err := a.record(cand).source(cand)
	if err != nil {
		return nil, err
	}
	s := &ProbeSession{
		a:              a,
		existing:       existing,
		cand:           cand,
		cleanPortDelay: make(map[topo.PortID]float64),
	}
	if cand.Route.CrossesBackbone {
		s.rx = newRxChain(a.net, cand, src)
	}

	tainted := make(map[topo.PortID]bool, len(cand.Route.Ports))
	for _, p := range cand.Route.Ports {
		tainted[p] = true
	}
	for changed := true; changed; {
		changed = false
		for _, m := range existing {
			seen := false
			for _, p := range m.Route.Ports {
				switch {
				case tainted[p]:
					seen = true
				case seen:
					tainted[p] = true
					changed = true
				}
			}
		}
	}
	isAffected := func(m *Connection) bool {
		for _, p := range m.Route.Ports {
			if tainted[p] {
				return true
			}
		}
		return false
	}

	// One candidate-free evaluation supplies every reusable result.
	ev, err := a.newEvaluation(existing)
	if err != nil {
		return nil, err
	}
	if s.cleanDelay, err = ev.delays(); err != nil {
		return nil, err
	}
	for _, m := range ev.ordered {
		if isAffected(m) {
			s.affected++
			delete(s.cleanDelay, m.ID)
		}
	}
	for p, d := range ev.portDelay {
		if !tainted[p] {
			s.cleanPortDelay[p] = d
		}
	}
	return s, nil
}

// Affected returns the number of existing connections whose delays must be
// recomputed per probe (exposed for tests and instrumentation).
func (s *ProbeSession) Affected() int { return s.affected }

// Breakdown returns the Eq. 7 per-server decomposition of connection id at
// the allocation of the most recent Delays call. The scratch evaluation is
// still warm from that probe — every envelope, port and MAC result is
// memoized — so assembling the decomposition re-runs no analysis. It exists
// so the CAC can report the decomposition of the allocation it just chose
// without paying for a fresh evaluation.
func (s *ProbeSession) Breakdown(id string) (Breakdown, error) {
	if s.scratch == nil {
		return Breakdown{}, errors.New("core: Breakdown before any probe")
	}
	c := s.scratch.conns[id]
	if c == nil {
		return Breakdown{}, fmt.Errorf("core: unknown connection %q", id)
	}
	return s.scratch.breakdown(c, needBacklogs)
}

// Delays evaluates the network with the candidate at allocation (hs, hr),
// reusing every result the taint analysis proved invariant. The returned map
// is identical to Analyzer.Delays over existing ∪ {candidate@(hs,hr)}.
func (s *ProbeSession) Delays(hs, hr float64) (map[string]float64, error) {
	ev, err := s.evaluation(hs, hr)
	if err != nil {
		return nil, err
	}
	out, err := ev.delays()
	if err != nil {
		return nil, fmt.Errorf("core: probe evaluation: %w", err)
	}
	return out, nil
}

// Feasible reports whether every connection — the candidate and every
// standing one — meets its deadline with the candidate at (hs, hr): Eq. 24–25,
// the verdict meetsDeadlines gives on Delays(hs, hr). It computes no more than
// that verdict needs. The candidate is evaluated first, the standing
// connections after it, and the probe ends at the first connection that
// misses, since one failing conjunct decides the answer; inside a connection
// the Eq. 7 walk ends at the first server past which the deadline is already
// gone (see evaluation.fold). An allocation the sender MAC cannot sustain is
// thus refused by a closed-form test, without an analysis of any port. Errors
// the analysis would report count as a miss, as they do in Delays' callers.
func (s *ProbeSession) Feasible(hs, hr float64) bool {
	return s.verdict(hs, hr, nil, 0)
}

// FeasibleWithin is Feasible with the second conjunct of Eq. 31–32: every
// connection must also have its delay within the relative tolerance tol of
// its entry in ref (the delays at the segment maximum).
func (s *ProbeSession) FeasibleWithin(hs, hr float64, ref map[string]float64, tol float64) bool {
	return s.verdict(hs, hr, ref, tol)
}

// verdict is the conjunction behind Feasible (ref == nil) and FeasibleWithin,
// counting where a "no" was decided. A candidate whose receiver MAC cannot
// sustain the rate entering it is refused before any server is analysed
// (rxOverloaded): every walk that reached that MAC would end in its
// ErrOverload, and every walk that did not ended in a "no" earlier.
func (s *ProbeSession) verdict(hs, hr float64, ref map[string]float64, tol float64) bool {
	ev, err := s.evaluation(hs, hr)
	if err != nil {
		return false
	}
	if s.rxOverloaded() {
		mProbeCutoffs[cutDstMAC].Inc()
		return false
	}
	if cut := s.holds(ev, s.probe, ref, tol); cut != cutNone {
		mProbeCutoffs[cut].Inc()
		return false
	}
	for _, c := range ev.ordered {
		if c != s.probe && s.holds(ev, c, ref, tol) != cutNone {
			mProbeCutoffs[cutOther].Inc()
			return false
		}
	}
	return true
}

// rxOverloaded reports whether Theorem 1's stability test fails at the
// candidate's receiver MAC at the probe's allocation.
func (s *ProbeSession) rxOverloaded() bool {
	if s.rx == nil {
		return false
	}
	c := s.probe
	p := fddi.MACParams{Ring: s.a.net.RingConfig(c.Dst.Ring), H: c.HR}
	return p.Overloaded(s.rx.rate(s.a.net, c))
}

// holds tests one connection's conjuncts and returns cutNone when they hold,
// or the server at which they were found not to. The limit is the deadline
// itself, as in meetsDeadlines: no tolerance in the connection's favour. With
// ref it is also the equal-delay band, units.RelBand of the connection's
// reference delay: a total above the band fails WithinRel, and a partial sum
// above it is a total above it (Breakdown.sum), so the walk ends there with
// the verdict it would have reached at the end of the path.
func (s *ProbeSession) holds(ev *evaluation, c *Connection, ref map[string]float64, tol float64) cutoff {
	limit := c.Deadline
	if ref != nil {
		limit = min(limit, units.RelBand(ref[c.ID], tol))
	}
	complete := cutDstMAC // the server that completes c's sum
	if !c.Route.CrossesBackbone {
		complete = cutSrcMAC
	}
	d, ok := ev.prefilledDelay[c.ID]
	if !ok {
		n := needVerdict
		if ref != nil {
			n = needDelays // Eq. 31–32 compare the exact delays
		}
		_, cut, err := ev.fold(c, hops(c), &s.walked, limit, n)
		if err != nil || cut != cutNone {
			return cut
		}
		d = s.walked.Total
	} else if d > limit {
		return complete
	}
	if ref != nil && !units.WithinRel(d, ref[c.ID], tol) {
		return complete
	}
	return cutNone
}

// evaluation returns the session's scratch evaluation, reset and re-seeded
// for a probe at (hs, hr). The first call validates the connection set and
// allocates the maps; later calls clear and reuse them, re-checking only the
// allocation-dependent invariants (the set itself cannot have changed).
func (s *ProbeSession) evaluation(hs, hr float64) (*evaluation, error) {
	if s.scratch == nil {
		s.probe = s.cand.clone()
		s.probe.HS, s.probe.HR = hs, hr
		conns := make([]*Connection, 0, len(s.existing)+1)
		conns = append(conns, s.existing...)
		conns = append(conns, s.probe)
		ev, err := s.a.newEvaluation(conns)
		if err != nil {
			return nil, err
		}
		s.scratch = ev
	} else {
		s.probe.HS, s.probe.HR = hs, hr
		if s.probe.HS <= 0 {
			return nil, fmt.Errorf("core: connection %q has no sender allocation", s.probe.ID)
		}
		if s.probe.Route.CrossesBackbone && s.probe.HR <= 0 {
			return nil, fmt.Errorf("core: connection %q crosses the backbone without a receiver allocation", s.probe.ID)
		}
	}
	s.reseed()
	return s.scratch, nil
}

// reseed clears the scratch evaluation's memo maps and re-seeds them with
// the session's probe-invariant results: untainted port delays and unaffected
// end-to-end delays. It runs once per probe — up to 2·SearchIters + 4 times
// per admission request — and touches only preallocated state, so it must
// not allocate (TestWarmProbeEvaluationAllocationFree). The map re-seeding
// loop is a per-key transfer, which is iteration-order-safe.
func (s *ProbeSession) reseed() {
	ev := s.scratch
	clear(ev.portDelay)
	clear(ev.portBusy)
	clear(ev.memo)
	// Envelopes are re-resolved per probe: stage-0 envelopes come straight
	// from the connections' records (pointer-stable across probes), later
	// hops shift with the probe's port delays.
	ev.prefilledDelay = s.cleanDelay
	for p, d := range s.cleanPortDelay {
		ev.portDelay[p] = d
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"fafnet/internal/obs"
	"fafnet/internal/topo"
)

// Sharded is the admission controller: the CAC algorithm of Section 5.3
// (decideAgainst), one request at a time, as the paper states it. It is safe
// for concurrent use: one mutex serializes decisions, releases and the
// reports that analyze, and two things make the serial path cheap and its
// state easy to read:
//
//   - An immutable admitted-state snapshot. The admitted set, the ring
//     ledgers derived from it (Eq. 26–27), and the state fingerprint are
//     published as a copy-on-write snapshot behind an atomic pointer: the
//     snapshot is the only copy of the admitted state, and readers (Active,
//     Connections, SourceBusy, RingLedger) load it without the lock. A
//     decision analyzes the current snapshot and commits its successor in
//     one critical section, so Eq. 24–25's re-verification of every standing
//     deadline always runs against the set it commits onto.
//
//   - An exact verdict cache. The CAC verdict is a pure function of the
//     admitted multiset of (endpoints, traffic, H_S, H_R) and the candidate
//     specification — connection ids name decisions but cannot change them —
//     so verdicts are cached under the (state hash, spec fingerprint) key
//     from fingerprint.go. Under admission churn the state hash cycles back
//     to previously seen values every time a release undoes an admission,
//     and a whole class of same-shape candidates then resolves with zero
//     probes. A burst of same-class candidates costs one analysis: the first
//     miss seeds the entry before the next decision takes the lock.
//
// Lock ordering: mu → (audit record callback).
type Sharded struct {
	net  *topo.Network
	opts Options

	// mu serializes decisions, releases and analyzing reports.
	// snap is only Stored while mu is held (Loads are lock-free).
	mu   sync.Mutex
	snap atomic.Pointer[snapState]
	// an is the one analyzer; its private caches stay warm from one
	// decision to the next. guarded by mu.
	an *Analyzer
	// cache is the verdict cache. guarded by mu.
	cache map[verdictKey]verdictEntry
}

// snapState is one immutable published view of the admitted state. Every
// field is read-only after publication; commits build a fresh snapState.
type snapState struct {
	// conns is the admitted set sorted by id.
	conns []*Connection
	// byID indexes conns.
	byID map[string]*Connection
	// busy maps each source host that already originates a connection to
	// that connection's id.
	busy map[topo.HostID]string
	// allocated and avail are the ring ledgers (Eq. 26–27), indexed by ring:
	// Ω, the allocations of conns on that ring summed in id order, and
	// H^max_avai = max(0, TTRT − Δ − Ω).
	allocated, avail []float64
	// hash is the multiset fingerprint of the admitted set; meaningful only
	// when unhashable is zero.
	hash stateHash
	// unhashable counts admitted connections whose spec has no fingerprint;
	// any such connection disables the verdict cache until released.
	unhashable int
}

// verdictKey identifies one decision problem: the admitted-state hash plus
// the candidate's specification fingerprint.
type verdictKey struct {
	state stateHash
	spec  fingerprint
}

// verdictEntry is one settled verdict.
type verdictEntry struct {
	// dec is the decision template: Delays stripped (its keys are the
	// deciding request's standing ids, meaningless to a later hit), Probes
	// and Cache zeroed (a hit costs none).
	dec Decision
	// candDelay is the candidate's own end-to-end delay (admit verdicts).
	candDelay float64
}

// verdictCacheCap bounds the verdict cache; at it the cache is cleared, as
// the analyzer's record and class maps are (recurrence under churn re-seeds
// hot keys in one miss each).
const verdictCacheCap = 4096

// NewController builds the admission controller over the given network
// topology. The network is used read-only (routing and ring configuration).
func NewController(net *topo.Network, opts Options) (*Controller, error) {
	if net == nil {
		return nil, errors.New("core: controller requires a network")
	}
	opts = opts.withDefaults()
	if !(opts.Beta >= 0 && opts.Beta <= 1) {
		return nil, fmt.Errorf("core: beta %v must be in [0,1]", opts.Beta)
	}
	if math.IsNaN(opts.HMinAbs) || math.IsInf(opts.HMinAbs, 1) {
		return nil, fmt.Errorf("core: minimum allocation %v must be finite", opts.HMinAbs)
	}
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < net.NumRings(); i++ {
		if err := net.RingConfig(i).Validate(); err != nil {
			return nil, err
		}
	}
	p := &Sharded{net: net, opts: opts, an: an, cache: make(map[verdictKey]verdictEntry)}
	p.snap.Store(nextSnap(net, nil))
	return p, nil
}

// NewSharded is NewController; its third argument is ignored.
//
// Deprecated: use NewController. There is one analyzer, so there are no
// lanes to size.
func NewSharded(net *topo.Network, opts Options, _ int) (*Sharded, error) {
	return NewController(net, opts)
}

// Network returns the pipeline's network topology.
func (p *Sharded) Network() *topo.Network { return p.net }

// Options returns the effective options (defaults applied).
func (p *Sharded) Options() Options { return p.opts }

// Active returns the number of admitted connections.
func (p *Sharded) Active() int { return len(p.snap.Load().conns) }

// Connections returns the admitted connections sorted by id. The returned
// slice is the caller's; the *Connection values are shared and must be
// treated as read-only.
func (p *Sharded) Connections() []*Connection {
	conns := p.snap.Load().conns
	out := make([]*Connection, len(conns))
	copy(out, conns)
	return out
}

// SourceBusy reports whether some admitted connection already originates at
// the given host (the paper assumes at most one connection per host).
func (p *Sharded) SourceBusy(h topo.HostID) bool {
	_, busy := p.snap.Load().busy[h]
	return busy
}

// RingLedger returns ring i's committed synchronous time: the total
// allocated to admitted connections (Ω) and what is still available
// (H^max_avai, Eq. 26–27).
func (p *Sharded) RingLedger(i int) (allocated, available float64) {
	snap := p.snap.Load()
	return snap.allocated[i], snap.avail[i]
}

// RequestAdmission runs the CAC algorithm of Section 5.3 for the given
// specification: compute availability (Eq. 26–27), test feasibility at the
// maximum allocation, locate (H^min_need, H^max_need) by binary search along
// the allocation segment, and commit the β-interpolated allocation
// (Eq. 35–36) by publishing the successor snapshot. A non-nil error indicates
// an invalid request, not a rejection. On a verdict cache hit — the same
// candidate class against the same admitted multiset — Decision.Delays
// contains only the candidate's entry and Probes is 0.
func (p *Sharded) RequestAdmission(spec ConnSpec) (Decision, error) {
	return p.decideObserved(spec, true, nil)
}

// PreviewAdmission runs the full CAC algorithm but commits nothing: no
// bandwidth is reserved and the connection set is unchanged. Use it for
// capacity planning ("would this fit right now, and at what allocation?").
func (p *Sharded) PreviewAdmission(spec ConnSpec) (Decision, error) {
	return p.decideObserved(spec, false, nil)
}

// RequestAdmissionAudited is RequestAdmission with an audit hook: record is
// invoked exactly once with the final outcome. For decisions that change
// state (admits) it runs inside the commit critical section, so the order
// of record invocations across connections equals the order their commits
// published — the invariant that makes audit-log replay reconstruct the
// identical admitted state. Rejections and errors invoke record outside any
// lock (replay skips them, so their interleaving is free).
func (p *Sharded) RequestAdmissionAudited(spec ConnSpec, record func(Decision, error)) (Decision, error) {
	return p.decideObserved(spec, true, record)
}

// PreviewAdmissionAudited is PreviewAdmission with the audit hook (always
// invoked outside locks: previews never change state).
func (p *Sharded) PreviewAdmissionAudited(spec ConnSpec, record func(Decision, error)) (Decision, error) {
	return p.decideObserved(spec, false, record)
}

// decideObserved wraps the decision flow with the observability the daemon
// exposes — the decision-latency span/histogram and the outcome counters —
// and guarantees the audit hook fires exactly once.
func (p *Sharded) decideObserved(spec ConnSpec, commit bool, record func(Decision, error)) (Decision, error) {
	_, sp := obs.Start(context.Background(), "core.decide")
	dec, recorded, err := p.decide(spec, commit, record)
	mDecideSeconds.Observe(sp.Seconds())
	sp.End()
	switch {
	case err != nil:
		mDecisionErrors.Inc()
	case dec.Admitted:
		mAdmitted.Inc()
	default:
		mRejected.Inc()
	}
	if record != nil && !recorded {
		record(dec, err)
	}
	return dec, err
}

// decide runs one decision under mu: preflight against the current
// snapshot, the verdict cache or the analysis, and for an admit the commit
// and its audit record, so the record order is the commit order.
func (p *Sharded) decide(spec ConnSpec, commit bool, record func(Decision, error)) (Decision, bool, error) {
	if err := spec.Validate(); err != nil {
		return Decision{}, false, err
	}
	route, err := p.net.Route(spec.Src, spec.Dst)
	if err != nil {
		return Decision{Reason: ReasonInvalidTarget}, false, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.snap.Load()
	dec, reject, err := preflight(snap, p.opts, spec, route)
	if err != nil || reject {
		return dec, false, err
	}
	dec, cand, err := p.analyze(snap, dec, spec, route)
	if err != nil {
		return Decision{}, false, err
	}
	if !dec.Admitted || !commit {
		return dec, false, nil
	}
	if !p.commitLocked(snap, cand, dec) {
		return Decision{}, false, fmt.Errorf("core: commit of %q: allocation (%v, %v) exceeds the ring ledgers it was decided against", spec.ID, dec.HS, dec.HR)
	}
	if record == nil {
		return dec, false, nil
	}
	record(dec, nil)
	return dec, true, nil
}

// preflight runs the cheap rejection gates against a snapshot: duplicate
// id, busy source host, availability floor. These are the fast paths a
// high-churn workload mostly exercises; none of them needs an analyzer. It is
// the one place the H^min_abs floor (Eq. 26–27) is applied: a candidate that
// passes gets back the Decision carrying its availabilities, which
// decideAgainst starts from.
func preflight(snap *snapState, opts Options, spec ConnSpec, route topo.Route) (Decision, bool, error) {
	if _, dup := snap.byID[spec.ID]; dup {
		return Decision{}, true, fmt.Errorf("core: connection %q already admitted", spec.ID)
	}
	if _, busy := snap.busy[spec.Src]; busy {
		return Decision{Reason: ReasonHostBusy}, true, nil
	}
	dec := Decision{HSMaxAvail: snap.avail[spec.Src.Ring]}
	if route.CrossesBackbone {
		dec.HRMaxAvail = snap.avail[spec.Dst.Ring]
	}
	if dec.HSMaxAvail < opts.HMinAbs ||
		(route.CrossesBackbone && dec.HRMaxAvail < opts.HMinAbs) {
		dec.Reason = ReasonNoBandwidth
		return dec, true, nil
	}
	return dec, false, nil
}

// analyze resolves the expensive part of one decision: a verdict cache
// lookup, and on a miss the full probe-based algorithm, whose verdict then
// seeds the cache. Called with mu held.
func (p *Sharded) analyze(snap *snapState, dec Decision, spec ConnSpec, route topo.Route) (Decision, *Connection, error) {
	key, usable := verdictKeyFor(snap, spec)
	if !usable {
		mVerdictSkips.Inc()
		return p.analyzeMiss(snap, dec, spec, route)
	}
	if e, ok := p.cache[key]; ok {
		mVerdictHits.Inc()
		dec = e.dec
		if dec.Admitted {
			dec.Delays = map[string]float64{spec.ID: e.candDelay}
		}
		return dec, &Connection{ConnSpec: spec, Route: route}, nil
	}
	dec, cand, err := p.analyzeMiss(snap, dec, spec, route)
	mVerdictMisses.Inc()
	if err != nil {
		return dec, cand, err
	}
	if len(p.cache) >= verdictCacheCap {
		clear(p.cache)
	}
	e := verdictEntry{dec: dec, candDelay: dec.Delays[spec.ID]}
	e.dec.Delays = nil
	e.dec.Probes = 0
	e.dec.Cache = CacheStats{}
	p.cache[key] = e
	return dec, cand, nil
}

// verdictKeyFor builds the cache key for a decision problem, reporting
// whether caching is sound (every admitted spec and the candidate must
// fingerprint exactly).
func verdictKeyFor(snap *snapState, spec ConnSpec) (verdictKey, bool) {
	if snap.unhashable > 0 {
		return verdictKey{}, false
	}
	fp, ok := specFingerprint(spec)
	if !ok {
		return verdictKey{}, false
	}
	return verdictKey{state: snap.hash, spec: fp}, true
}

// analyzeMiss runs the full CAC algorithm on the analyzer against the
// snapshot's admitted set and committed availabilities. Called with mu held.
func (p *Sharded) analyzeMiss(snap *snapState, dec Decision, spec ConnSpec, route topo.Route) (Decision, *Connection, error) {
	before := p.an.stats
	dec, cand, err := decideAgainst(p.an, p.opts, snap.conns, dec, spec, route)
	dec.Cache = p.an.stats.Sub(before)
	return dec, cand, err
}

// commitLocked admits cand with dec's allocation on top of snap, the current
// snapshot. Called with mu held. The decision capped its allocation at
// snap's own availability, so the protocol constraint ΣH <= TTRT − Δ holds
// by construction; it is checked all the same, and a commit that would
// break it publishes nothing and reports false.
func (p *Sharded) commitLocked(snap *snapState, cand *Connection, dec Decision) bool {
	src, dst := cand.Src.Ring, cand.Dst.Ring
	if !p.net.RingConfig(src).Fits(snap.allocated[src], dec.HS) ||
		(cand.Route.CrossesBackbone && !p.net.RingConfig(dst).Fits(snap.allocated[dst], dec.HR)) {
		mBookkeepingErrors.Inc()
		return false
	}
	cand.HS, cand.HR = dec.HS, dec.HR
	conns := make([]*Connection, 0, len(snap.conns)+1)
	p.publish(append(append(conns, snap.conns...), cand))
	mShardCommits.Inc()
	return true
}

// Release tears down an admitted connection, freeing its bandwidth on both
// rings. It reports whether the connection existed.
func (p *Sharded) Release(id string) bool {
	return p.release(id, nil)
}

// ReleaseAudited is Release with an audit hook invoked inside the commit
// critical section (releases change state, so their audit order must equal
// their commit order).
func (p *Sharded) ReleaseAudited(id string, record func(found bool)) bool {
	return p.release(id, record)
}

func (p *Sharded) release(id string, record func(bool)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.snap.Load()
	if _, ok := snap.byID[id]; !ok {
		if record != nil {
			record(false)
		}
		return false
	}
	conns := make([]*Connection, 0, len(snap.conns)-1)
	for _, c := range snap.conns {
		if c.ID != id {
			conns = append(conns, c)
		}
	}
	p.publish(conns)
	mReleases.Inc()
	if record != nil {
		record(true)
	}
	return true
}

// publish stores the snapshot of the given admitted set (which it takes
// ownership of) and sets the active-connection and ring balance gauges from
// it. Called with mu held.
func (p *Sharded) publish(conns []*Connection) {
	snap := nextSnap(p.net, conns)
	p.snap.Store(snap)
	gActive.Set(float64(len(snap.conns)))
	minU, maxU := 1.0, 0.0
	for r, alloc := range snap.allocated {
		u := 0.0
		if usable := alloc + snap.avail[r]; usable > 0 {
			u = alloc / usable
		}
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	if minU > maxU {
		minU = maxU
	}
	gShardUtilMax.Set(maxU)
	gShardImbalance.Set(maxU - minU)
}

// nextSnap builds the snapshot of the given admitted set. Ring ledgers and
// state hash are recomputed from scratch — the admitted set is small (the
// paper's availability bound caps concurrent connections long before the
// snapshot copy costs anything), and recomputation keeps both trivially in
// sync with the set they describe: an empty set is the initial ledger, bit
// for bit. Ω is a float sum and float addition is not associative, so it
// runs in id order, the order fddi.Ring.Allocated sums in.
func nextSnap(net *topo.Network, conns []*Connection) *snapState {
	sort.Slice(conns, func(i, j int) bool { return conns[i].ID < conns[j].ID })
	rings := net.NumRings()
	ledgers := make([]float64, 2*rings)
	next := &snapState{
		conns:     conns,
		byID:      make(map[string]*Connection, len(conns)),
		busy:      make(map[topo.HostID]string, len(conns)),
		allocated: ledgers[:rings:rings],
		avail:     ledgers[rings:],
	}
	for _, c := range conns {
		next.byID[c.ID] = c
		next.busy[c.Src] = c.ID
		next.allocated[c.Src.Ring] += c.HS
		if c.Route.CrossesBackbone {
			next.allocated[c.Dst.Ring] += c.HR
		}
		fp, ok := connFingerprint(c)
		if !ok {
			next.unhashable++
			continue
		}
		next.hash.add(fp)
	}
	for r := range next.avail {
		next.avail[r] = math.Max(0, net.RingConfig(r).UsableTTRT()-next.allocated[r])
	}
	return next
}

// DelayReport returns the current worst-case delay of every admitted
// connection, computed against the live snapshot.
func (p *Sharded) DelayReport() (map[string]float64, error) {
	_, delays, err := p.ConnectionsAndDelays()
	return delays, err
}

// ConnectionsAndDelays returns the admitted connections sorted by id, as
// Connections does, and the current worst-case delay of each, both read from
// one snapshot under the lock: every connection listed has its delay, and no
// admit or release lands between the two.
func (p *Sharded) ConnectionsAndDelays() ([]*Connection, map[string]float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.snap.Load().conns
	delays, err := p.an.Delays(conns)
	if err != nil {
		return nil, nil, err
	}
	return append([]*Connection(nil), conns...), delays, nil
}

// BufferReport returns the buffer requirements of every admitted
// connection, sorted by connection id. One evaluation of the admitted set
// serves every connection's breakdown.
func (p *Sharded) BufferReport() ([]BufferRequirement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.snap.Load()
	ev, err := p.an.newEvaluation(snap.conns)
	if err != nil {
		return nil, err
	}
	out := make([]BufferRequirement, 0, len(snap.conns))
	for _, conn := range snap.conns {
		bd, err := ev.breakdownOf(conn.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, BufferRequirement{
			ConnID:        conn.ID,
			SrcBufferBits: bd.SrcBufferBits,
			DstBufferBits: bd.DstBufferBits,
		})
	}
	return out, nil
}

// BreakdownFor returns the per-server delay decomposition of an admitted
// connection.
func (p *Sharded) BreakdownFor(id string) (Breakdown, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.snap.Load()
	if _, ok := snap.byID[id]; !ok {
		return Breakdown{}, fmt.Errorf("core: unknown connection %q", id)
	}
	return p.an.Breakdown(snap.conns, id)
}

// FeasibleAllocation reports whether granting (hs, hr) to the candidate
// would satisfy every deadline (Eq. 24–25), without admitting anything.
// It exists for feasible-region exploration (Theorems 3–4) and testing. A
// request the analysis cannot evaluate (an id already admitted, no sender
// allocation, a source with no flat lowering) is an error, as it is for
// RequestAdmission; an allocation with no finite bound is infeasible.
func (p *Sharded) FeasibleAllocation(spec ConnSpec, hs, hr float64) (bool, error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	route, err := p.net.Route(spec.Src, spec.Dst)
	if err != nil {
		return false, err
	}
	cand := &Connection{ConnSpec: spec, Route: route, HS: hs, HR: hr}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.snap.Load()
	conns := make([]*Connection, 0, len(snap.conns)+1)
	conns = append(append(conns, snap.conns...), cand)
	delays, err := p.an.Delays(conns)
	if err != nil {
		return false, err
	}
	return meetsDeadlines(snap.conns, cand, delays), nil
}

// BatchResult pairs one batch member's decision with its error.
type BatchResult struct {
	ID       string
	Decision Decision
	Err      error
}

// PreviewAdmissionBatch evaluates a batch of candidates in input order
// without committing anything. Because previews leave the admitted state
// untouched, every member after the first of its specification class
// resolves from the verdict cache. The optional record callback observes each
// member's outcome; results come back in input order.
func (p *Sharded) PreviewAdmissionBatch(specs []ConnSpec, record func(i int, dec Decision, err error)) []BatchResult {
	out := make([]BatchResult, len(specs))
	for i := range specs {
		var cb func(Decision, error)
		if record != nil {
			cb = func(dec Decision, err error) { record(i, dec, err) }
		}
		dec, err := p.PreviewAdmissionAudited(specs[i], cb)
		out[i] = BatchResult{ID: specs[i].ID, Decision: dec, Err: err}
	}
	return out
}

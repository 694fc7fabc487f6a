package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"

	"fafnet/internal/atm"
	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// errInfeasible marks a connection (or a port it flows through) with no
// finite worst-case bound under the probed allocation. It flows through the
// evaluation as the value +Inf rather than as a hard failure: an infinite
// delay simply fails the deadline test.
var errInfeasible = errors.New("core: no finite delay bound")

// Analyzer computes network-wide worst-case delays by propagating traffic
// envelopes along every connection's server chain and analyzing each shared
// FIFO port with the envelopes of all connections that traverse it. What it
// learns about a connection — none of which depends on any other connection's
// allocation except through the keys it is stored under — is kept across
// evaluations in one record per record class (recClass): the connection's
// traffic, regulator, rings and buffers, never its id. Analyzer is not safe
// for concurrent use.
type Analyzer struct {
	net *topo.Network
	// conns holds the one cache record per record class, for at most
	// maxClasses classes. Every connection of a class — a re-admission under
	// a fresh id, two standing connections with equal traffic — reads and
	// fills the same record.
	conns map[recClass]*connCache
	// stats accumulates cache hit/miss counts over the analyzer's lifetime.
	stats CacheStats
	// ws holds the arrays every port aggregate of this analyzer is summed
	// in. One analyzer runs one analysis at a time, which is the single-owner
	// rule the workspace asks for; nothing cached above may point into it.
	ws traffic.Workspace
	// members is the stack the port analyses gather their member envelopes
	// on: each muxDelay pushes its members above the ones of the ports it was
	// called from, and pops them before it returns (see muxDelay).
	members []traffic.Envelope
}

// connCache is everything the analyzer remembers about one record class: one
// map of hop results, each a pure function of its key and the class. Probes
// and releases revisit the same global states, so the same keys recur with
// the same pointer-stable envelopes — which lets later hops key whole results
// by envelope identity.
type connCache struct {
	hops map[recKey]hopResult
	// src is the class's source lowered over flatHorizon, the sender MAC's
	// input and so the leaf of every stage-0 chain, whose window the sender
	// MAC's delay shifts past: long serves that; nil until the first probe or
	// analysis of the class asks.
	src *traffic.Flat
	// long is the class's source lowered once more, over a window that grows
	// to cover flatHorizon plus the longest sender-side delay a stage-0
	// lowering has asked for: every stage-0 envelope reads the shifted source
	// off it (traffic.Workspace.Lower) instead of lowering the source again.
	long traffic.Lowering
}

// recClass is what determines every entry of a connection's record: the
// sender entry (nil, H_S) reads the source, the sender ring and the host
// buffer, its stage-0 flat also the regulator and whether the route crosses
// the backbone (Src.Ring ≠ Dst.Ring), and the receiver entry (in, H_R) the
// destination ring and the interface-device buffer. Port entries (in, d) are
// pure in their key. The id, deadline and host indexes determine none.
type recClass struct {
	source           traffic.Descriptor
	shape            shaper.Spec
	shaped           bool
	srcRing, dstRing int
	hostBuf, idBuf   float64
}

// recKey is what determines one hop result: the envelope entering the hop
// and the exact bits of the hop's free parameter, H_S or H_R at a MAC, the
// delay at a port. The envelope names the hop — nil at the sender, fed by the
// source, and otherwise built for exactly one hop: the stage-0 flat, or the
// view leaving a port — and its identity stands for the allocation and
// delays upstream.
//
// The envelope is kept as its concrete pointer, so that the key is plain
// memory the map hashes as such.
type recKey struct {
	flat *traffic.Flat
	view *traffic.View
	x    uint64
}

// keyAt is the key of the hop that in enters (nil: the sender) under the
// free parameter x.
func keyAt(in traffic.Envelope, x float64) recKey {
	k := recKey{x: math.Float64bits(x)}
	switch e := in.(type) {
	case *traffic.Flat:
		k.flat = e
	case *traffic.View:
		k.view = e
	}
	return k
}

// hopResult is one cached hop: the Theorem 1 analysis and verdict at a MAC,
// the envelope leaving a port or the sender side (there nil until asked for).
// A receiver entry keeps no MAC output: nothing reads it, and it would hold
// the scratch input it was analysed on.
type hopResult struct {
	mac fddi.MACResult
	err error
	out traffic.Envelope
}

// Cache caps. One CAC bisection at a busy port generates on the order of a
// hundred distinct states (each probed allocation shifts every downstream
// envelope), and the same states recur on the next admission of the same
// class, so the caps must hold a full bisection's working set or every
// iteration recomputes it. A record or the class map that an insert finds
// full is cleared (see remember, record).
const (
	maxConnEntries = 512
	maxClasses     = 256
)

// flatHorizon is the window (seconds) every envelope of the analyzer covers
// with vertices, less the port delays a view subtracts from it: a few TTRTs,
// enough for the mux busy periods and the busy intervals of lightly loaded
// rings, while keeping every cached array small. The class's long source
// lowering alone covers more, flatHorizon plus the sender-side delay, and is
// read only as the stage-0 shift's input. A scan that walks deeper — a
// receiver MAC near its stability limit has a busy interval of hundreds of
// rotations — evaluates the points it visits beyond the window through the
// envelope's exact tail chain; lowering the envelope out to that depth first
// would cost ten thousand vertices for an array nothing reads again. Most of
// those rotations cannot end the busy interval, and the Eq. 9 scan starts
// past them, at the first rotation the envelope's rate floor lets end it
// (fddi.firstRotation), so what the tail chain serves is the rotations from
// there to B. The constant trades speed, never correctness.
const flatHorizon = 0.025

// remember stores v under k in the record. A class keeps its record, and
// every decision probes allocations the record has not seen, so it is
// bounded: an insert that finds maxConnEntries entries clears the map first.
// Envelopes rebuilt after a clear are new ones with the old values, so the
// caches keyed by envelope identity miss once and no result moves.
func (rec *connCache) remember(k recKey, v hopResult) {
	switch {
	case rec.hops == nil:
		// A decision probes up to 2·SearchIters + 4 = 28 allocations.
		rec.hops = make(map[recKey]hopResult, 32)
	case len(rec.hops) >= maxConnEntries:
		clear(rec.hops)
	}
	rec.hops[k] = v
}

// NewAnalyzer builds an analyzer for the given network.
func NewAnalyzer(net *topo.Network, _ AnalysisOptions) (*Analyzer, error) {
	if net == nil {
		return nil, errors.New("core: Analyzer requires a network")
	}
	return &Analyzer{
		net:   net,
		conns: make(map[recClass]*connCache),
	}, nil
}

// record returns the record of c's class, starting one when the class is
// new; an insert that finds maxClasses classes clears the map first. A source
// whose dynamic value is not comparable (traffic.Aggregate and traffic.Min
// hold slices) cannot key the map: its connection gets a record private to
// the evaluation.
func (a *Analyzer) record(c *Connection) *connCache {
	if !reflect.ValueOf(c.Source).Comparable() {
		return new(connCache)
	}
	k := recClass{source: c.Source, srcRing: c.Src.Ring, dstRing: c.Dst.Ring,
		hostBuf: c.HostBufferBits, idBuf: c.IDBufferBits}
	if c.Shape != nil {
		k.shape, k.shaped = *c.Shape, true
	}
	rec := a.conns[k]
	if rec == nil {
		if len(a.conns) >= maxClasses {
			clear(a.conns)
		}
		rec = new(connCache)
		a.conns[k] = rec
	}
	return rec
}

// CacheStats returns the cache hit/miss totals accumulated since the
// analyzer was built. Snapshot it around an operation and Sub the snapshots
// to attribute cache traffic to that operation.
func (a *Analyzer) CacheStats() CacheStats { return a.stats }

// Delays returns the worst-case end-to-end delay of every connection under
// the given allocations. Connections without a finite bound map to +Inf.
// A non-nil error indicates a structural problem (invalid route or spec),
// not an infeasible allocation.
func (a *Analyzer) Delays(conns []*Connection) (map[string]float64, error) {
	ev, err := a.newEvaluation(conns)
	if err != nil {
		return nil, err
	}
	return ev.delays()
}

// Breakdown returns the per-server decomposition of one connection's worst
// case under the given allocations.
func (a *Analyzer) Breakdown(conns []*Connection, id string) (Breakdown, error) {
	ev, err := a.newEvaluation(conns)
	if err != nil {
		return Breakdown{}, err
	}
	return ev.breakdownOf(id)
}

// evaluation is one consistent snapshot: all envelopes and port delays are
// computed against the same set of connections and allocations, memoized for
// the duration of the evaluation.
//
// Its state is dense. A connection is numbered by its index in ordered, a
// port by its index in the network (topo.Route.PortIndex), and everything the
// evaluation learns sits in slices under those numbers, so no probe hashes a
// string or a pointer to find its own bookkeeping. Resetting it for the next
// probe is a pass over the tainted ports and two clears (ProbeSession.reset).
type evaluation struct {
	a       *Analyzer
	ordered []*Connection // sorted by id: the deterministic iteration order
	// recs holds each connection's record, as looked up when the evaluation
	// was built: the evaluation keeps filling them even if the analyzer has
	// since cleared its class map.
	recs []*connCache

	// memo holds connection i's hops k at memo[hopBase[i]+k].
	memo    []hopMemo
	hopBase []int
	// members lists the connections crossing port p, each with the stage
	// the port is on its route, in evaluation order:
	// members[memberBase[p]:memberBase[p+1]].
	members    []portMember
	memberBase []int

	// portDelay holds each port's worst-case delay once analysed (+Inf: no
	// finite bound), NaN before; portBusy marks the ports whose analysis is
	// gathering members now.
	portDelay []float64
	portBusy  []bool

	// keep, when non-nil, marks the connections whose totals no probe of a
	// session can change (ProbeSession); totalDelays keeps the first it
	// computes of each in prefilledDelay, NaN before, for totalDelay to return.
	keep           []bool
	prefilledDelay []float64

	// walked is the breakdown the walks that keep only a total (totalDelay,
	// ProbeSession's verdicts) fill: one serves them all, its Ports buffer
	// reused. No walk runs inside another, only envelope folds.
	walked Breakdown
}

// portMember is one connection crossing a port: its index in the evaluation
// and the port's 0-based position on its route.
type portMember struct {
	conn, stage int
}

// hopMemo is what one evaluation has learned of one hop: the envelope leaving
// it — the stage-0 flat, or a port's view, each standing for its fused chain
// (the flat's tail, the view's built when asked), on which later transforms
// compose so that Fuse's Q∘Q and D∘D rules keep firing — and at the sender
// how many of its servers are known (1 the MAC, 2 the regulator too), their
// delays, the MAC's backlog (NaN until a report asks for it) and pre, the
// envelope leaving them. Only what succeeded is kept: a server without a
// finite bound answers from the record.
type hopMemo struct {
	out           traffic.Envelope
	pre           traffic.Descriptor
	mac, buf, reg float64
	known         uint8
}

func (a *Analyzer) newEvaluation(conns []*Connection) (*evaluation, error) {
	ordered, err := a.checkConns(conns)
	if err != nil {
		return nil, err
	}
	ports := a.net.NumPorts()
	// hopBase, memberBase and the counting sort's cursors share one array.
	offsets := make([]int, len(conns)+1+2*ports+1)
	ev := &evaluation{
		a:          a,
		ordered:    ordered,
		recs:       make([]*connCache, len(conns)),
		hopBase:    offsets[:len(conns)+1],
		memberBase: offsets[len(conns)+1 : len(conns)+ports+2],
		portDelay:  make([]float64, ports),
		portBusy:   make([]bool, ports),
	}
	for i, c := range ev.ordered {
		ev.recs[i] = a.record(c)
		ev.hopBase[i+1] = ev.hopBase[i] + hops(c)
		for _, p := range c.Route.PortIndex {
			ev.memberBase[p+1]++
		}
	}
	ev.memo = make([]hopMemo, ev.hopBase[len(conns)])
	// Counting sort of the route ports by port, stable in evaluation order.
	for p := 0; p < ports; p++ {
		ev.memberBase[p+1] += ev.memberBase[p]
	}
	ev.members = make([]portMember, ev.memberBase[ports])
	next := offsets[len(conns)+ports+2:]
	copy(next, ev.memberBase[:ports])
	for i, c := range ev.ordered {
		for stage, p := range c.Route.PortIndex {
			ev.members[next[p]] = portMember{conn: i, stage: stage}
			next[p]++
		}
	}
	for p := range ev.portDelay {
		ev.portDelay[p] = math.NaN()
	}
	a.ws.Forget()
	return ev, nil
}

// checkConn reports why no evaluation can take c: a nil connection, an
// invalid spec, a missing allocation, or a route whose dense port indexes do
// not fit the analyzer's network. It allocates nothing on a connection it
// accepts: every probe re-checks its candidate's allocation with it.
func (a *Analyzer) checkConn(c *Connection) error {
	if c == nil {
		return errors.New("core: nil connection in evaluation")
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if c.HS <= 0 {
		return fmt.Errorf("core: connection %q has no sender allocation", c.ID)
	}
	if c.Route.CrossesBackbone && c.HR <= 0 {
		return fmt.Errorf("core: connection %q crosses the backbone without a receiver allocation", c.ID)
	}
	return a.checkRoute(c)
}

// checkRoute reports a route of c whose dense port indexes do not fit the
// analyzer's network: every evaluation keeps its per-port state under them.
func (a *Analyzer) checkRoute(c *Connection) error {
	if len(c.Route.PortIndex) != len(c.Route.Ports) {
		return fmt.Errorf("core: connection %q has a route without port indexes", c.ID)
	}
	for _, p := range c.Route.PortIndex {
		if p < 0 || p >= a.net.NumPorts() {
			return fmt.Errorf("core: connection %q crosses port index %d of a network with %d ports", c.ID, p, a.net.NumPorts())
		}
	}
	return nil
}

// checkConns is checkConn over a connection set, which must also hold no id
// twice. It returns a copy of conns sorted by id, the evaluation order.
func (a *Analyzer) checkConns(conns []*Connection) ([]*Connection, error) {
	for _, c := range conns {
		if err := a.checkConn(c); err != nil {
			return nil, err
		}
	}
	ordered := slices.Clone(conns)
	slices.SortFunc(ordered, func(a, b *Connection) int { return strings.Compare(a.ID, b.ID) })
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1].ID == ordered[i].ID {
			return nil, fmt.Errorf("core: duplicate connection id %q", ordered[i].ID)
		}
	}
	return ordered, nil
}

// lookup returns the index of connection id in the evaluation, or false.
func (ev *evaluation) lookup(id string) (int, bool) {
	return sort.Find(len(ev.ordered), func(i int) int { return strings.Compare(id, ev.ordered[i].ID) })
}

// breakdownOf assembles the per-server decomposition of connection id, with
// the backlogs: the reports' breakdown, built afresh for the caller to keep.
func (ev *evaluation) breakdownOf(id string) (Breakdown, error) {
	i, ok := ev.lookup(id)
	if !ok {
		return Breakdown{}, fmt.Errorf("core: unknown connection %q", id)
	}
	var bd Breakdown
	if _, _, err := ev.foldAt(i, hops(ev.ordered[i]), &bd, math.Inf(1), needBacklogs); err != nil {
		return Breakdown{}, err
	}
	return bd, nil
}

// cutoff names where an evaluation stopped short: the server at which a walk
// along one connection's path ended without a total within its limit, or —
// for a probe over many connections — that it was not the candidate's.
type cutoff uint8

const (
	cutNone   cutoff = iota // every server analysed, total within the limit
	cutSrcMAC               // at the sender MAC (and the regulator behind it)
	cutPort                 // at a shared FIFO port
	cutDstMAC               // at the receiver MAC, where the sum is complete
	cutOther                // at a connection other than the candidate
)

// need says what a walk along a route reads of its servers, and so what
// Theorem 1 must compute at its MACs.
type need uint8

const (
	// needVerdict: only whether the total fits the limit (ProbeSession's
	// Feasible). The last server may be answered by the closed-form bound
	// (boundHolds) instead of a scan.
	needVerdict need = iota
	// needDelays: every delay exact (delays(), FeasibleWithin); no backlog.
	needDelays
	// needBacklogs: every delay exact and both MACs' backlogs F (the
	// reports: Breakdown, BufferReport, Decision.Stages).
	needBacklogs
)

// hops is the length of c's route in foldAt's numbering: the sender side alone
// on a same-ring route, else sender, shared ports and receiver.
func hops(c *Connection) int {
	if !c.Route.CrossesBackbone {
		return 1
	}
	return len(c.Route.Ports) + 2
}

// foldAt is Eq. 7 along the route of c, the evaluation's connection i, one
// hop at a time, in the one server order of this package:
//
//   - hop 0, the sender side: the sender-host MAC (Theorem 1), the regulator
//     of a shaped connection, the frame→cell conversion (Theorem 2) lowered
//     to a flat, reading the shifted source off the class's long lowering;
//   - hops 1…n, the shared FIFO ports in order: the port's worst-case delay
//     (muxDelay), and a view of the entering envelope shifted by it and
//     capped by the port (traffic.NewView), which copies nothing;
//   - hop n+1, the receiver: reassembly, then Theorem 1 at the receiving
//     interface device's MAC on the destination ring (theorem1).
//
// Each result is looked up in the memo, then in c's record, before it is
// computed.
//
// With bd nil, foldAt returns the envelope entering hop to (1 ≤ to ≤ n+1),
// and n is not read. With bd non-nil it walks hops 0…to−1 (to = hops(c)) and builds
// no envelope itself — a port asks for its members' (muxDelay), the receiver
// for its own — filling bd (whose Ports buffer it reuses) and stopping as soon
// as the delay accumulated so far exceeds limit, or a server has no finite
// bound (the error). It returns cutNone exactly when bd is complete and
// bd.Total <= limit; reporting callers pass +Inf and only ever see an error.
// n says what the walk reads: the backlogs F are filled in only for
// needBacklogs (otherwise they may be NaN), and under needVerdict the last
// server may be answered by its closed-form bound (boundHolds), which then
// stands in bd for the exact delay, so that Total bounds the exact total
// from above.
//
// The accumulated delay tested after each hop is bd.sum() with the servers
// not yet analysed still at zero — the very expression that yields Total, so
// a partial sum can never exceed the total it stands in for (see sum), and
// stopping on it loses no verdict. The receiver MAC, the deepest scan of a
// low-allocation probe, is never run for a connection that has missed its
// deadline before reaching it.
func (ev *evaluation) foldAt(i, to int, bd *Breakdown, limit float64, n need) (traffic.Envelope, cutoff, error) {
	c, rec, memo := ev.ordered[i], ev.recs[i], ev.memo[ev.hopBase[i]:ev.hopBase[i+1]]
	walk := bd != nil
	var env traffic.Envelope // the envelope leaving the last hop folded, unless walking
	from := 0
	if !walk {
		// The memo holds the envelopes of a prefix of c's hops: find its end.
		for from = to; from > 0; from-- {
			if f, ok := ev.enteringHit(i, from); ok {
				env = f
				break
			}
		}
	}
	for k := from; k < to; k++ {
		var m hopMemo
		var cut cutoff
		switch {
		case k == 0:
			cut = cutSrcMAC
			m = memo[0]
			if !walk {
				ev.a.stats.Stage0Misses++
				mCacheStage0Misses.Inc()
			}
			if walk && m.known == 0 && n == needVerdict && !c.Route.CrossesBackbone {
				*bd = Breakdown{Constant: c.Route.ConstantDelay, Ports: bd.Ports[:0]}
				if ev.boundHolds(i, nil, bd, limit) {
					return nil, cutNone, nil
				}
			}
			if m.known == 0 || (n == needBacklogs && math.IsNaN(m.buf)) {
				res, err := ev.theorem1(i, nil, c.Src.Ring, c.HS, c.HostBufferBits, n == needBacklogs)
				if err != nil {
					return nil, cut, err
				}
				if m.known == 0 {
					m.pre, m.mac, m.known = res.Output, res.Delay, 1
				}
				m.buf = res.BufferBits
				memo[0] = m
			}
			if walk {
				*bd = Breakdown{SrcMAC: m.mac, Constant: c.Route.ConstantDelay, SrcBufferBits: m.buf, Ports: bd.Ports[:0]}
			}
			if c.Shape != nil && c.Route.CrossesBackbone {
				// A frame that can never conform (σ below the frame size)
				// makes the bound infinite.
				if m.known == 1 {
					if frameBits := ev.a.net.RingConfig(c.Src.Ring).FrameBits(c.HS); c.Shape.SigmaBits < frameBits {
						return nil, cut, fmt.Errorf("%w: shaper of %q: bucket %v bits below frame size %v",
							errInfeasible, c.ID, c.Shape.SigmaBits, frameBits)
					}
					res, err := shaper.Analyze(m.pre, *c.Shape)
					if err != nil {
						return nil, cut, fmt.Errorf("%w: shaper of %q: %v", errInfeasible, c.ID, err)
					}
					m.pre, m.reg, m.known = res.Output, res.Delay, 2
					memo[0] = m
				}
				if walk {
					bd.Shaper = m.reg
				}
			}
			if walk {
				break
			}
			frameBits := ev.a.net.RingConfig(c.Src.Ring).FrameBits(c.HS)
			conv, err := ifdev.SenderConversion(traffic.FuseRoot(m.pre), frameBits, ev.a.net.Config().ID)
			if err != nil {
				return nil, cut, err
			}
			// m.pre is a transform over the lowered source, or the
			// regulator's Min over such: its inner is fused, so the root
			// rules fuse it, and the conversion over it, as Fuse would. The
			// source under the sender-side delay is read off the class's
			// long lowering.
			src, err := rec.source(c)
			if err != nil {
				return nil, cut, err
			}
			f := ev.a.ws.Lower(traffic.FuseRoot(conv), flatHorizon, src, &rec.long)
			if f == nil {
				return nil, cut, fmt.Errorf("%w: envelope of %q: the segment cap ends its window before the sender-side delay", errInfeasible, c.ID)
			}
			env = f
			mFlatLowerings.Inc()
			// The stage-0 envelope depends only on the class and H_S, so it is
			// kept beside the sender-MAC result (unless a full record dropped
			// that since): a bisection that revisits an h reuses the envelope,
			// pointer identity included.
			rk := recKey{x: math.Float64bits(c.HS)}
			if e, ok := rec.hops[rk]; ok {
				e.out = env
				rec.hops[rk] = e
			}
		case k <= len(c.Route.Ports):
			cut = cutPort
			p := c.Route.Ports[k-1]
			d, err := ev.muxDelay(c.Route.PortIndex[k-1])
			if err != nil {
				return nil, cut, err
			}
			if walk {
				bd.Ports = append(bd.Ports, PortDelay{Port: p, Delay: d})
				break
			}
			rk := keyAt(env, d)
			if e, ok := rec.hops[rk]; ok {
				env = e.out
				break
			}
			// The view copies nothing: its consumers read its vertices off
			// the entering envelope's. Every port shares the one backbone
			// capacity, so its tail, built only if something evaluates past
			// its window, fuses the Delayed stack over the stage-0 envelope
			// into one Delayed with the summed delay.
			if env, err = traffic.NewView(env, d, ev.a.net.PortCapacity(), flatHorizon); err != nil {
				return nil, cut, fmt.Errorf("core: envelope after port %v: %w", p, err)
			}
			rec.remember(rk, hopResult{out: env})
		default:
			cut = cutDstMAC
			in, _, err := ev.foldAt(i, k, nil, 0, needDelays)
			if err != nil {
				return nil, cut, err
			}
			if n == needVerdict && ev.boundHolds(i, in, bd, limit) {
				return nil, cutNone, nil
			}
			res, err := ev.theorem1(i, in, c.Dst.Ring, c.HR, c.IDBufferBits, n == needBacklogs)
			if err != nil {
				return nil, cut, err
			}
			bd.DstMAC, bd.DstBufferBits = res.Delay, res.BufferBits
		}
		if !walk {
			m.out = env
			memo[k] = m
			continue
		}
		t := bd.sum()
		if k == to-1 {
			bd.Total = t
		}
		if t > limit {
			return nil, cut, nil
		}
	}
	return env, cutNone, nil
}

// enteringHit answers an entering query from the memo or, for the first
// port, from the record's sender-allocation entry. Nearly every envelope
// query of a warm probe lands here, so it must not allocate
// (TestWarmEvaluationRunsNoAnalysis); the fold behind it, entered once per
// (connection, allocation), allocates by design.
func (ev *evaluation) enteringHit(i, k int) (traffic.Envelope, bool) {
	m := &ev.memo[ev.hopBase[i]+k-1]
	if f := m.out; f != nil || k != 1 {
		return f, f != nil
	}
	// Exact equality on the allocation: the cached envelope is valid only
	// for precisely the h it was built with.
	e := ev.recs[i].hops[recKey{x: math.Float64bits(ev.ordered[i].HS)}]
	if e.out == nil {
		return nil, false
	}
	ev.a.stats.Stage0Hits++
	mCacheStage0Hits.Inc()
	m.out = e.out
	return e.out, true
}

// theorem1 is the one Theorem 1 path of both MACs, on ring under the
// allocation h with the buffer bound bufferBits: at the sender (in nil) fed
// by the source, at the receiver fed by in, the envelope entering it,
// reassembled into frames. The result is a pure function of (in, h) and the
// class, so it is kept in the class's record under (in, h) and its error
// names no connection; the sender's lookups are what CacheStats counts. Only
// the sender's result keeps an output envelope, built here over the
// record's source: the sender's successors read it. The receiver's would be
// built over the workspace's scratch and is read by nothing, so it is never
// built.
//
// The backlog F is computed only when backlog is set or the buffer bound
// needs it for its verdict; otherwise it is NaN. An entry cached without F
// that a report then asks for is filled in place: the analysis runs again
// for F alone, and the entry keeps the envelope it caches beside the result.
func (ev *evaluation) theorem1(i int, in traffic.Envelope, ring int, h, bufferBits float64, backlog bool) (fddi.MACResult, error) {
	c, rec, key := ev.ordered[i], ev.recs[i], keyAt(in, h)
	e, hit := rec.hops[key]
	switch {
	case in != nil:
	case hit:
		ev.a.stats.MACHits++
		mCacheMACHits.Inc()
	default:
		ev.a.stats.MACMisses++
		mCacheMACMisses.Inc()
	}
	refill := hit && e.err == nil && backlog && math.IsNaN(e.mac.BufferBits)
	if hit && !refill {
		return e.mac, e.err
	}
	var input traffic.Descriptor
	side, cfg := "sender", ev.a.net.RingConfig(ring)
	if in == nil {
		src, err := rec.source(c)
		if err != nil {
			return fddi.MACResult{}, err
		}
		input = src
	} else {
		side = "receiver"
		var err error
		if input, err = ev.a.receiverInput(in, cfg, h); err != nil {
			return fddi.MACResult{}, err
		}
	}
	p := fddi.MACParams{Ring: cfg, H: h, BufferBits: bufferBits}
	analyze := fddi.AnalyzeMACDelay
	if backlog {
		analyze = fddi.AnalyzeMAC
	}
	res, err := analyze(input, p, fddi.Options{})
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %s MAC: %v", errInfeasible, side, err)
		res = fddi.MACResult{}
	case in != nil:
		res.Output = nil
	case res.Output == nil:
		// AnalyzeMACDelay builds none: AnalyzeMAC's output rule, over the
		// same input and χ.
		res.Output = traffic.Delayed{Inner: input, Delay: res.Delay, CapBps: cfg.BandwidthBps}
	}
	if refill && err == nil {
		// The same input and allocation: the verdict and χ are the entry's.
		e.mac.BufferBits = res.BufferBits
		rec.hops[key] = e
		return e.mac, nil
	}
	rec.remember(key, hopResult{mac: res, err: err})
	return res, err
}

// receiverInput is the envelope theorem1 analyses at a receiver MAC on the
// ring cfg under the allocation h, fed by in: the cells reassembled into
// frames (Theorem 2 at ID_R), and that lowered. The receiver MAC dominates
// probe cost. The reassembly quantization applied to in's vertices in closed
// form makes every point inside the window a segment lookup; the
// reassembly over in stays on as the exact tail, which past the window reads
// in's fused chain. The flat is built in the workspace and scanned once: only
// the verdict is kept.
func (a *Analyzer) receiverInput(in traffic.Envelope, cfg fddi.RingConfig, h float64) (traffic.Descriptor, error) {
	reassembled, err := ifdev.ReceiverConversion(in, cfg.FrameBits(h), a.net.Config().ID)
	if err != nil {
		return nil, err
	}
	if qn, ok := reassembled.(traffic.Quantized); ok {
		if qf := a.ws.Quantize(in, qn.QuantumBits, qn.OutBits, flatHorizon, reassembled); qf != nil {
			mFlatLowerings.Inc()
			return qf, nil
		}
	}
	return reassembled, nil
}

// boundHolds answers the last server of c's route in a verdict walk without
// a scan, when it can: the receiver MAC (in, the envelope entering it,
// non-nil), or the sender MAC of a same-ring route. It tries
// fddi.DelayBound, the closed-form Theorem 1 bound, in the server's place in
// bd, and reports true when the sum with the bound is within limit — by the
// argument of bd.sum, the exact sum is then within limit too, so the verdict
// is the scan's. It is tried only when the record holds no exact result for
// the server (a cached χ is exact and costs nothing) and the server has no
// buffer bound (whose verdict needs F). The receiver's bound reads σ and ρ
// off in: the reassembly's rule needs only its inner's burst bound, which
// the envelope caches, so no reassembled envelope is lowered. On false bd is
// as it was.
func (ev *evaluation) boundHolds(i int, in traffic.Envelope, bd *Breakdown, limit float64) bool {
	c := ev.ordered[i]
	ring, h, buffer, term := c.Src.Ring, c.HS, c.HostBufferBits, &bd.SrcMAC
	var input traffic.Descriptor = c.Source
	if in != nil {
		ring, h, buffer, term = c.Dst.Ring, c.HR, c.IDBufferBits, &bd.DstMAC
	}
	if buffer > 0 {
		return false
	}
	if _, hit := ev.recs[i].hops[keyAt(in, h)]; hit {
		return false
	}
	cfg := ev.a.net.RingConfig(ring)
	if in != nil {
		reassembled, err := ifdev.ReceiverConversion(in, cfg.FrameBits(h), ev.a.net.Config().ID)
		if err != nil {
			return false
		}
		input = reassembled
	}
	bound, ok := fddi.DelayBound(input, fddi.MACParams{Ring: cfg, H: h})
	if !ok {
		return false
	}
	*term = bound
	t := bd.sum()
	if t > limit {
		*term = 0
		return false
	}
	bd.Total = t
	mProbeBoundHolds.Inc()
	return true
}

// source returns the record's lowered source, lowering c's on first use. It
// reports the source as invalid when traffic.Flatten has no rule for it (a
// descriptor type from outside package traffic, at the root or under a
// transform). Every envelope of an evaluation is a flat or a view of one, so
// such a connection cannot be analysed at any allocation: that is an error
// of the request, not a verdict on it.
func (rec *connCache) source(c *Connection) (*traffic.Flat, error) {
	if rec.src == nil {
		if rec.src = traffic.Flatten(c.Source, flatHorizon); rec.src == nil {
			return nil, fmt.Errorf("core: connection %q: source %T has no lowering to a flat envelope", c.ID, c.Source)
		}
	}
	return rec.src, nil
}

// muxDelay returns the worst-case queueing delay of the shared FIFO port
// with dense index p, analyzed with the envelopes of every connection
// traversing it, each read off the fold at the hop the port is on that
// member's route.
func (ev *evaluation) muxDelay(p int) (float64, error) {
	if d := ev.portDelay[p]; !math.IsNaN(d) {
		if math.IsInf(d, 1) {
			// The first analysis of this port found no finite bound; repeat
			// the infeasibility verdict instead of handing +Inf to envelope
			// constructors downstream.
			return 0, fmt.Errorf("%w: port %v has no finite bound", errInfeasible, ev.portName(p))
		}
		return d, nil
	}
	if ev.portBusy[p] {
		return 0, fmt.Errorf("core: cyclic port dependency at %v", ev.portName(p))
	}
	// The members go on the analyzer's stack, above those of any port whose
	// analysis is gathering members now. A member's fold may analyse an
	// upstream port first, which pushes and pops its own above this one's, and
	// may grow the stack: the slice is re-read after every fold.
	base := len(ev.a.members)
	ev.portBusy[p] = true
	defer func() {
		ev.portBusy[p] = false
		clear(ev.a.members[base:])
		ev.a.members = ev.a.members[:base]
	}()

	for _, pm := range ev.members[ev.memberBase[p]:ev.memberBase[p+1]] {
		env, _, err := ev.foldAt(pm.conn, pm.stage+1, nil, 0, needDelays)
		if err != nil {
			if errors.Is(err, errInfeasible) {
				// A member with an unbounded envelope floods the port:
				// no finite bound for anyone behind it.
				ev.portDelay[p] = math.Inf(1)
				return 0, fmt.Errorf("%w: port %v carries unbounded member %q", errInfeasible, ev.portName(p), ev.ordered[pm.conn].ID)
			}
			return 0, err
		}
		ev.a.members = append(ev.a.members, env)
	}
	members := ev.a.members[base:]
	if len(members) == 0 {
		ev.portDelay[p] = 0
		return 0, nil
	}
	// The aggregate is the sum of the member envelopes, folded afresh in
	// evaluation order, so the delay is a function of the member set alone.
	// The workspace's sum arrays are free to take it: gathering the members
	// above has finished every upstream port, and only the verdict outlives
	// the analysis. The sum is built, and a member view read, only as far as
	// the busy period reaches.
	mFlatAggRebuilds.Inc()
	params := atm.MuxParams{CapacityBps: ev.a.net.PortCapacity()}
	res, err := atm.AnalyzeMembers(&ev.a.ws, members, params)
	if err != nil {
		switch {
		case errors.Is(err, atm.ErrMuxOverload),
			errors.Is(err, atm.ErrMuxNoConvergence),
			errors.Is(err, atm.ErrMuxBufferOverflow):
			ev.portDelay[p] = math.Inf(1)
			return 0, fmt.Errorf("%w: port %v: %v", errInfeasible, ev.portName(p), err)
		default:
			return 0, err
		}
	}
	ev.portDelay[p] = res.Delay
	return res.Delay, nil
}

// portName names the port with dense index p for an error: the name the
// route of one of its members gives it.
func (ev *evaluation) portName(p int) topo.PortID {
	pm := ev.members[ev.memberBase[p]]
	return ev.ordered[pm.conn].Route.Ports[pm.stage]
}

// delays is Eq. 7 for every connection of the evaluation. A connection
// without a finite bound maps to +Inf; any other error is a structural
// problem and ends the evaluation.
func (ev *evaluation) delays() (map[string]float64, error) {
	ds, err := ev.totalDelays()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(ev.ordered))
	for i, c := range ev.ordered {
		out[c.ID] = ds[i]
	}
	return out, nil
}

// totalDelays is delays by connection index.
func (ev *evaluation) totalDelays() ([]float64, error) {
	out := make([]float64, len(ev.ordered))
	for i := range ev.ordered {
		d, err := ev.totalDelay(i)
		switch {
		case errors.Is(err, errInfeasible):
			d = math.Inf(1)
		case err != nil:
			return nil, err
		}
		out[i] = d
		if ev.keep != nil && ev.keep[i] {
			ev.prefilledDelay[i] = d
		}
	}
	return out, nil
}

// totalDelay is Eq. 7: the sum of the worst-case delays of every server on
// the connection's path.
func (ev *evaluation) totalDelay(i int) (float64, error) {
	if d, ok := ev.prefilled(i); ok {
		return d, nil
	}
	if _, _, err := ev.foldAt(i, hops(ev.ordered[i]), &ev.walked, math.Inf(1), needDelays); err != nil {
		return 0, err
	}
	return ev.walked.Total, nil
}

// prefilled returns connection i's end-to-end delay when the evaluation was
// seeded with it.
func (ev *evaluation) prefilled(i int) (float64, bool) {
	if ev.prefilledDelay == nil {
		return 0, false
	}
	d := ev.prefilledDelay[i]
	return d, !math.IsNaN(d)
}

// sum is the Eq. 7 summation, in the one order every total and every partial
// sum of this package is taken: sender MAC, regulator, constants and receiver
// MAC first, then the ports in traversal order. A server not analysed yet
// contributes its zero value, and adding zero is exact, so on a partly filled
// breakdown this is Total with the missing terms zeroed. Rounded addition is
// monotone in each argument and no server delay is negative, so that value is
// at most the eventual Total — exactly, not to a tolerance.
func (bd *Breakdown) sum() float64 {
	t := bd.SrcMAC + bd.Shaper + bd.Constant + bd.DstMAC
	for _, pd := range bd.Ports {
		t += pd.Delay
	}
	return t
}

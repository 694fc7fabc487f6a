package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"

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
// evaluations in one record per connection id. Analyzer is not safe for
// concurrent use.
type Analyzer struct {
	net  *topo.Network
	opts AnalysisOptions
	// conns holds the one cache record per connection id. Every evaluation
	// revalidates its connections against it and starts a fresh record for an
	// id whose spec changed, so cached state survives a release (an
	// admit/release/re-admit cycle — the steady state of a CAC — reuses
	// everything) without a reused id ever seeing another spec's results.
	conns map[string]*connCache
	// portMux caches FIFO-port analysis results keyed by the exact member
	// flat set (pointer identity, in evaluation order): a port whose members
	// all match a previously analyzed state reuses the delay verbatim. Flats
	// are value-immutable, so pointer equality implies envelope equality.
	portMux map[topo.PortID][]portMuxEntry
	// stats accumulates cache hit/miss counts over the analyzer's lifetime.
	stats CacheStats
	// ws is the scratch every MAC and mux analysis of this analyzer takes its
	// candidate grids and scan tables from (handed down through opts.MAC and
	// opts.Mux). One analyzer runs one analysis at a time, which is the
	// single-owner rule the workspace asks for; nothing cached above may
	// point into it.
	ws traffic.Workspace
}

// connCache is everything the analyzer remembers about one connection, valid
// for exactly the spec it was filled under. Each map is keyed by the exact
// inputs that determine its values, so an entry is a pure function of its
// key: admission probes and releases revisit the same global states, the same
// keys recur, and with them the same pointer-stable flats — which is what
// lets stage, dst and portMux key whole analysis results by flat identity.
type connCache struct {
	spec ConnSpec
	// src is keyed by the sender allocation H_S.
	src map[float64]*srcEntry
	// stage holds the flat envelopes entering the second and later ports of
	// the route.
	stage map[stageKey]*traffic.Flat
	// dst holds the receiver-MAC analyses (Theorem 1 on the destination ring).
	dst map[dstKey]macEntry
}

// srcEntry is what one sender allocation determines: the sender-MAC analysis
// and, once an evaluation has asked for it, the envelope entering the first
// shared port (nil until then, and for good when the MAC has no finite bound).
type srcEntry struct {
	mac macEntry
	env *traffic.Flat
}

// stageKey identifies the envelope entering a later port: the flat that
// entered the port upstream — itself cached under the sender allocation and
// the delays further upstream, so its identity stands for all of them — and
// that port's worst-case delay.
type stageKey struct {
	prev  *traffic.Flat
	delay float64
}

// dstKey identifies a receiver-MAC analysis: the flat envelope entering the
// destination interface device and the receiver allocation.
type dstKey struct {
	flat *traffic.Flat
	hr   float64
}

// portMuxEntry is one cached FIFO-port analysis: the member flats it was
// computed against (evaluation order) and the outcome — either a finite
// worst-case delay or the infeasibility verdict.
type portMuxEntry struct {
	flats []*traffic.Flat
	delay float64
	err   error
}

type macEntry struct {
	res fddi.MACResult
	err error
}

// Cache caps. One CAC bisection at a busy port generates on the order of a
// hundred distinct states (each probed allocation shifts every downstream
// envelope), and the same states recur on the next admission of the same
// spec, so the caps must hold a full bisection's working set or every
// iteration recomputes it. A map of a connection record that an insert finds
// full is cleared (see remember); a port's verdict list drops its older half,
// the recurring member sets being the recently used ones.
const (
	maxConnEntries    = 512
	maxPortMuxEntries = 256
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

// remember stores v under k in one map of a connection record. An id that
// keeps its spec keeps its record, and every decision probes allocations the
// maps have not seen, so each is bounded: an insert that finds the map at
// maxConnEntries clears it first. Flats rebuilt after a clear are new arrays
// with the old values, so the caches keyed by flat identity miss once and no
// result moves.
func remember[K comparable, V any](m *map[K]V, k K, v V) {
	switch {
	case *m == nil:
		// A decision probes up to 2·SearchIters + 4 allocations (two
		// bisections with their starting points, the segment maximum, the
		// chosen point): 28 at the default 12 iterations.
		*m = make(map[K]V, 32)
	case len(*m) >= maxConnEntries:
		clear(*m)
	}
	(*m)[k] = v
}

// NewAnalyzer builds an analyzer for the given network.
func NewAnalyzer(net *topo.Network, opts AnalysisOptions) (*Analyzer, error) {
	if net == nil {
		return nil, errors.New("core: Analyzer requires a network")
	}
	a := &Analyzer{
		net:     net,
		opts:    opts,
		conns:   make(map[string]*connCache),
		portMux: make(map[topo.PortID][]portMuxEntry),
	}
	// The workspace is the analyzer's own even when the caller's options
	// carry one: options are copied between analyzers (one per lane), a
	// workspace must not be.
	a.opts.MAC.Workspace = &a.ws
	a.opts.Mux.Workspace = &a.ws
	return a, nil
}

// maxTrackedConns bounds how many connection ids the analyzer retains cached
// state for. Far above any single network's active set, it only guards
// long-lived analyzers fed a stream of unique ids: past it, the ids that are
// not part of the evaluation being built — released connections, rejected
// candidates — are dropped, and the standing set keeps its sender-MAC and
// stage-0 state.
const maxTrackedConns = 256

// revalidate returns connection c's cache record, starting a fresh one when
// the id is new or its spec differs from the one the record was filled under.
// It makes cache reuse safe across releases: stale state cannot leak into a
// reused id because the first evaluation that sees the new spec drops it.
// current is the connection set of the evaluation being built.
func (a *Analyzer) revalidate(c *Connection, current map[string]*Connection) *connCache {
	if rec, ok := a.conns[c.ID]; ok && sameSpec(rec.spec, c.ConnSpec) {
		return rec
	}
	if len(a.conns) >= maxTrackedConns {
		for id := range a.conns {
			if _, standing := current[id]; !standing {
				delete(a.conns, id)
			}
		}
		// Port verdicts are keyed by member flats; those of the evicted ids
		// can never match again and age out of the per-port lists, those of
		// the standing set stay valid.
	}
	rec := &connCache{spec: c.ConnSpec}
	a.conns[c.ID] = rec
	return rec
}

// sameSpec reports whether two specifications are identical for caching
// purposes. The source descriptor and shaper are compared by identity (or
// shallow value for the shaper): callers that rebuild an equal descriptor
// merely miss the cache, never corrupt it.
func sameSpec(a, b ConnSpec) bool {
	if a.ID != b.ID || a.Src != b.Src || a.Dst != b.Dst ||
		a.HostBufferBits != b.HostBufferBits || a.IDBufferBits != b.IDBufferBits {
		return false
	}
	if a.Shape != b.Shape &&
		(a.Shape == nil || b.Shape == nil || *a.Shape != *b.Shape) {
		return false
	}
	return sameDescriptor(a.Source, b.Source)
}

// sameDescriptor compares two descriptors: pointers by identity, comparable
// value types (Periodic, DualPeriodic — plain parameter structs) by value.
// Non-comparable dynamic types report false rather than risking the panic
// interface equality would raise.
func sameDescriptor(x, y traffic.Descriptor) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	tx := reflect.TypeOf(x)
	if tx != reflect.TypeOf(y) || !tx.Comparable() {
		return false
	}
	return x == y
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
	c := ev.conns[id]
	if c == nil {
		return Breakdown{}, fmt.Errorf("core: unknown connection %q", id)
	}
	return ev.breakdown(c)
}

// evaluation is one consistent snapshot: all envelopes and port delays are
// computed against the same set of connections and allocations, memoized for
// the duration of the evaluation.
type evaluation struct {
	a       *Analyzer
	conns   map[string]*Connection
	ordered []*Connection // deterministic iteration order
	// recs holds each connection's cache record, as revalidated when the
	// evaluation was built: the evaluation keeps filling the records of its
	// own specs even if the analyzer has since started others for the ids.
	recs map[string]*connCache

	portDelay map[topo.PortID]float64
	portBusy  map[topo.PortID]bool
	// envMemo is the one envelope per (connection, server boundary) of
	// Eq. 7: the fused chain lowered over flatHorizon, which the flat carries
	// on as its tail. Further transforms are composed on that tail — handing
	// them the flat would hide the chain's Quantized and Delayed nodes from
	// Fuse, whose Q∘Q and D∘D rules then stop firing.
	envMemo    map[envKey]*traffic.Flat
	macMemo    map[string]fddi.MACResult // sender MAC per connection this evaluation
	shaperMemo map[string]shaper.Result  // ingress regulator per shaped connection

	// prefilledDelay carries end-to-end results proven unaffected by the
	// current probe (see ProbeSession); totalDelay returns them directly.
	prefilledDelay map[string]float64
}

type envKey struct {
	connID string
	stage  int // index into Route.Ports: envelope entering that port
}

func (a *Analyzer) newEvaluation(conns []*Connection) (*evaluation, error) {
	// Size the memo maps for the common shape — every connection crossing the
	// backbone contributes one envelope per route stage (plus stage 0) and
	// one MAC/shaper entry; ports are shared, so a handful suffices.
	ev := &evaluation{
		a:          a,
		conns:      make(map[string]*Connection, len(conns)),
		recs:       make(map[string]*connCache, len(conns)),
		portDelay:  make(map[topo.PortID]float64, 8),
		portBusy:   make(map[topo.PortID]bool, 8),
		envMemo:    make(map[envKey]*traffic.Flat, 4*len(conns)),
		macMemo:    make(map[string]fddi.MACResult, len(conns)),
		shaperMemo: make(map[string]shaper.Result, len(conns)),
	}
	for _, c := range conns {
		if c == nil {
			return nil, errors.New("core: nil connection in evaluation")
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := ev.conns[c.ID]; dup {
			return nil, fmt.Errorf("core: duplicate connection id %q", c.ID)
		}
		if c.HS <= 0 {
			return nil, fmt.Errorf("core: connection %q has no sender allocation", c.ID)
		}
		if c.Route.CrossesBackbone && c.HR <= 0 {
			return nil, fmt.Errorf("core: connection %q crosses the backbone without a receiver allocation", c.ID)
		}
		ev.conns[c.ID] = c
		ev.ordered = append(ev.ordered, c)
	}
	// Revalidate once the set is complete: an overflow eviction must know
	// every connection of this evaluation, not only the ones seen so far.
	for _, c := range ev.ordered {
		ev.recs[c.ID] = a.revalidate(c, ev.conns)
	}
	sort.Slice(ev.ordered, func(i, j int) bool { return ev.ordered[i].ID < ev.ordered[j].ID })
	return ev, nil
}

// srcMAC analyzes the sender-host FDDI MAC (Theorem 1), with cross-
// evaluation caching.
func (ev *evaluation) srcMAC(c *Connection) (fddi.MACResult, error) {
	if res, ok := ev.macMemo[c.ID]; ok {
		return res, nil
	}
	rec := ev.recs[c.ID]
	if e := rec.src[c.HS]; e != nil {
		ev.a.stats.MACHits++
		mCacheMACHits.Inc()
		if e.mac.err == nil {
			ev.macMemo[c.ID] = e.mac.res
		}
		return e.mac.res, e.mac.err
	}
	ev.a.stats.MACMisses++
	mCacheMACMisses.Inc()
	params := fddi.MACParams{
		Ring:       ev.a.net.RingConfig(c.Src.Ring),
		H:          c.HS,
		BufferBits: c.HostBufferBits,
	}
	res, err := fddi.AnalyzeMAC(c.Source, params, ev.a.opts.MAC)
	if err != nil {
		err = fmt.Errorf("%w: sender MAC of %q: %v", errInfeasible, c.ID, err)
	}
	remember(&rec.src, c.HS, &srcEntry{mac: macEntry{res: res, err: err}})
	if err == nil {
		ev.macMemo[c.ID] = res
	}
	return res, err
}

// envelopeHit answers an envelopeEntering query from the per-evaluation
// memo or (for stage 0) the connection's record. On a warm probe nearly
// every envelope query lands here, so the helper is annotated: the
// hotpath analyzer proves the dominant path of a probe allocation-free and
// non-blocking, while the rebuild tail below stays unannotated — it is
// entered once per (connection, allocation) and allocates by design.
//
//fafvet:hotpath
func (ev *evaluation) envelopeHit(key envKey, c *Connection) (*traffic.Flat, bool) {
	if env, ok := ev.envMemo[key]; ok {
		return env, true
	}
	if key.stage != 0 {
		return nil, false
	}
	// Exact equality on the allocation: the cached envelope is valid only
	// for precisely the h it was built with.
	e := ev.recs[c.ID].src[c.HS]
	if e == nil || e.env == nil {
		return nil, false
	}
	ev.a.stats.Stage0Hits++
	mCacheStage0Hits.Inc()
	ev.envMemo[key] = e.env
	return e.env, true
}

// envelopeEntering returns connection c's traffic envelope at the entrance
// of the stage-th shared port on its route (past the last port: at the
// destination interface device). It is the one builder of envMemo. Every
// envelope is composed on the fused chain and lowered beside it: stage 0 by
// Flatten, a later stage by shifting the upstream flat, so nothing is lowered
// twice and a stage-cache hit returns the very flat portMux and dst key by.
func (ev *evaluation) envelopeEntering(c *Connection, stage int) (*traffic.Flat, error) {
	key := envKey{connID: c.ID, stage: stage}
	if env, ok := ev.envelopeHit(key, c); ok {
		return env, nil
	}
	rec := ev.recs[c.ID]
	var env *traffic.Flat
	if stage == 0 {
		ev.a.stats.Stage0Misses++
		mCacheStage0Misses.Inc()
		// Sender MAC output, optional ingress regulator, then frame→cell
		// conversion (Theorem 2). The constant-delay stages in between are
		// envelope-invariant.
		mac, err := ev.srcMAC(c)
		if err != nil {
			return nil, err
		}
		pre := mac.Output
		if c.Shape != nil {
			sh, err := ev.shaperResult(c, pre)
			if err != nil {
				return nil, err
			}
			pre = sh.Output
		}
		frameBits := ev.a.net.RingConfig(c.Src.Ring).FrameBits(c.HS)
		conv, err := ifdev.SenderConversion(pre, frameBits, ev.a.net.Config().ID)
		if err != nil {
			return nil, err
		}
		// The stage-0 envelope depends only on this connection's spec and
		// sender allocation, so it is kept beside the sender-MAC result that
		// srcMAC has just stored or found under this allocation: a bisection
		// that revisits an h reuses the envelope, pointer identity included.
		if env = traffic.Flatten(traffic.Fuse(conv), flatHorizon); env == nil {
			if err := sourceLowers(c); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: envelope of %q: the segment cap ends its window before the sender-side delay", errInfeasible, c.ID)
		}
		mFlatLowerings.Inc()
		rec.src[c.HS].env = env
	} else {
		prev, err := ev.envelopeEntering(c, stage-1)
		if err != nil {
			return nil, err
		}
		d, err := ev.muxDelay(c.Route.Ports[stage-1])
		if err != nil {
			return nil, err
		}
		// A stage hit returns before the chain is built.
		sk := stageKey{prev: prev, delay: d}
		if f := rec.stage[sk]; f != nil {
			ev.envMemo[key] = f
			return f, nil
		}
		capBps := ev.a.net.PortCapacity()
		out, err := traffic.NewDelayed(prev.Tail(), d, capBps)
		if err != nil {
			return nil, fmt.Errorf("core: envelope after port %v: %w", c.Route.Ports[stage-1], err)
		}
		// Every per-port stage shares the one backbone port capacity, so the
		// Delayed stack over the stage-0 envelope collapses to a single
		// Delayed with the summed delay; downstream consumers (later ports'
		// mux analyses, the receiver MAC) then pay one transform per Bits
		// call instead of one per traversed port.
		tail := traffic.Fuse(out)
		if env = prev.ShiftCap(d, capBps, flatHorizon, tail); env == nil {
			// The port delay used up the upstream window: lower the fused
			// chain afresh, over a window that reaches past the delay.
			if env = traffic.Flatten(tail, flatHorizon); env == nil {
				return nil, fmt.Errorf("%w: envelope of %q after port %v: the segment cap ends its window before the delay %v",
					errInfeasible, c.ID, c.Route.Ports[stage-1], d)
			}
			mFlatLowerings.Inc()
		}
		remember(&rec.stage, sk, env)
	}
	ev.envMemo[key] = env
	return env, nil
}

// sourceLowers reports c's source as invalid when traffic.Flatten has no rule
// for it (a descriptor type from outside package traffic, at the root or under
// a transform). Every envelope of an evaluation is a flat, so such a
// connection cannot be analysed at any allocation: that is an error of the
// request, not a verdict on it.
func sourceLowers(c *Connection) error {
	if traffic.Flatten(c.Source, flatHorizon) == nil {
		return fmt.Errorf("core: connection %q: source %T has no lowering to a flat envelope", c.ID, c.Source)
	}
	return nil
}

// shaperResult analyzes the ingress regulator for a shaped connection,
// memoized per evaluation. A frame that can never conform (σ below the
// connection's frame size) makes the bound infinite.
func (ev *evaluation) shaperResult(c *Connection, pre traffic.Descriptor) (shaper.Result, error) {
	if res, ok := ev.shaperMemo[c.ID]; ok {
		return res, nil
	}
	frameBits := ev.a.net.RingConfig(c.Src.Ring).FrameBits(c.HS)
	if c.Shape.SigmaBits < frameBits {
		return shaper.Result{}, fmt.Errorf("%w: shaper of %q: bucket %v bits below frame size %v",
			errInfeasible, c.ID, c.Shape.SigmaBits, frameBits)
	}
	res, err := shaper.Analyze(pre, *c.Shape)
	if err != nil {
		return shaper.Result{}, fmt.Errorf("%w: shaper of %q: %v", errInfeasible, c.ID, err)
	}
	ev.shaperMemo[c.ID] = res
	return res, nil
}

// muxDelay returns the worst-case queueing delay of a shared FIFO port,
// analyzed with the envelopes of every connection traversing it.
func (ev *evaluation) muxDelay(p topo.PortID) (float64, error) {
	if d, ok := ev.portDelay[p]; ok {
		if math.IsInf(d, 1) {
			// The first analysis of this port found no finite bound; repeat
			// the infeasibility verdict instead of handing +Inf to envelope
			// constructors downstream.
			return 0, fmt.Errorf("%w: port %v has no finite bound", errInfeasible, p)
		}
		return d, nil
	}
	if ev.portBusy[p] {
		return 0, fmt.Errorf("core: cyclic port dependency at %v", p)
	}
	ev.portBusy[p] = true
	defer func() { ev.portBusy[p] = false }()

	var flats []*traffic.Flat
	for _, m := range ev.ordered {
		for stage, q := range m.Route.Ports {
			if q != p {
				continue
			}
			env, err := ev.envelopeEntering(m, stage)
			if err != nil {
				if errors.Is(err, errInfeasible) {
					// A member with an unbounded envelope floods the port:
					// no finite bound for anyone behind it.
					ev.portDelay[p] = math.Inf(1)
					return 0, fmt.Errorf("%w: port %v carries unbounded member %q", errInfeasible, p, m.ID)
				}
				return 0, err
			}
			flats = append(flats, env)
			break
		}
	}
	if len(flats) == 0 {
		ev.portDelay[p] = 0
		return 0, nil
	}
	// A port whose member flat set matches a previously analyzed state
	// (pointer identity — flats are value-immutable, and the stage caches
	// keep pointers stable across probes of the same global state) reuses
	// the verdict without touching the aggregate.
	// Newest first: storePortMux appends, and the states that recur are
	// the recent ones.
	entries := ev.a.portMux[p]
	for i := len(entries) - 1; i >= 0; i-- {
		if e := &entries[i]; slices.Equal(e.flats, flats) {
			if e.err != nil {
				ev.portDelay[p] = math.Inf(1)
				return 0, e.err
			}
			ev.portDelay[p] = e.delay
			return e.delay, nil
		}
	}
	// The aggregate is the sum of the member flats, folded afresh in
	// evaluation order, so the delay is a function of the member set alone.
	// The workspace's sum arrays are free to take it: gathering the members
	// above has finished every upstream port, and only the verdict outlives
	// the analysis. The members-union tail covers evaluations beyond the flat
	// window.
	mFlatAggRebuilds.Inc()
	params := atm.MuxParams{CapacityBps: ev.a.net.PortCapacity()}
	res, err := atm.AnalyzeAggregate(ev.a.ws.Sum(flats), params, ev.a.opts.Mux)
	if err != nil {
		switch {
		case errors.Is(err, atm.ErrMuxOverload),
			errors.Is(err, atm.ErrMuxNoConvergence),
			errors.Is(err, atm.ErrMuxBufferOverflow):
			err = fmt.Errorf("%w: port %v: %v", errInfeasible, p, err)
			ev.a.storePortMux(p, flats, 0, err)
			ev.portDelay[p] = math.Inf(1)
			return 0, err
		default:
			return 0, err
		}
	}
	ev.a.storePortMux(p, flats, res.Delay, nil)
	ev.portDelay[p] = res.Delay
	return res.Delay, nil
}

// storePortMux records one port analysis verdict under its member flat set,
// resetting the per-port list when it outgrows the cap.
func (a *Analyzer) storePortMux(p topo.PortID, flats []*traffic.Flat, delay float64, err error) {
	entries := a.portMux[p]
	if len(entries) >= maxPortMuxEntries {
		entries = append(entries[:0], entries[len(entries)/2:]...)
	}
	a.portMux[p] = append(entries, portMuxEntry{flats: slices.Clone(flats), delay: delay, err: err})
}

// dstMAC analyzes the receiving interface device's MAC on the destination
// ring (the FDDI_R portion, mirroring the FDDI_S analysis).
func (ev *evaluation) dstMAC(c *Connection) (fddi.MACResult, error) {
	env, err := ev.envelopeEntering(c, len(c.Route.Ports))
	if err != nil {
		return fddi.MACResult{}, err
	}
	// The receiver-MAC analysis is a pure function of the envelope entering
	// the destination and the receiver allocation. The cached flat's pointer
	// identity pins the whole input, so a previous verdict for the same
	// (flat, HR) pair — the common case across the probes and releases of a
	// CAC — is reused verbatim.
	rec := ev.recs[c.ID]
	dk := dstKey{flat: env, hr: c.HR}
	if e, ok := rec.dst[dk]; ok {
		return e.res, e.err
	}
	frameBits := ev.a.net.RingConfig(c.Dst.Ring).FrameBits(c.HR)
	reassembled, err := ifdev.ReceiverConversion(env.Tail(), frameBits, ev.a.net.Config().ID)
	if err != nil {
		return fddi.MACResult{}, err
	}
	// The receiver-MAC analysis dominates probe cost: Theorem 1 walks a grid
	// proportional to the busy interval, paying the full transform chain at
	// every point. Fusing flattens the reassembled chain first.
	input := traffic.Fuse(reassembled)
	// Apply the reassembly quantization to the already-lowered flat in closed
	// form: every grid evaluation of the scans inside the window becomes a
	// segment lookup instead of a chain walk. The fused chain stays on as the
	// exact tail. The flat is scanned once and dropped; only the verdict is
	// cached.
	if qn, ok := reassembled.(traffic.Quantized); ok {
		if qf := env.Quantize(qn.QuantumBits, qn.OutBits, flatHorizon, input); qf != nil {
			input = qf
			mFlatLowerings.Inc()
		}
	}
	params := fddi.MACParams{
		Ring:       ev.a.net.RingConfig(c.Dst.Ring),
		H:          c.HR,
		BufferBits: c.IDBufferBits,
	}
	res, err := fddi.AnalyzeMAC(input, params, ev.a.opts.MAC)
	if err != nil {
		err = fmt.Errorf("%w: receiver MAC of %q: %v", errInfeasible, c.ID, err)
		res = fddi.MACResult{}
	}
	remember(&rec.dst, dk, macEntry{res: res, err: err})
	return res, err
}

// delays is Eq. 7 for every connection of the evaluation. A connection
// without a finite bound maps to +Inf; any other error is a structural
// problem and ends the evaluation.
func (ev *evaluation) delays() (map[string]float64, error) {
	out := make(map[string]float64, len(ev.ordered))
	for _, c := range ev.ordered {
		d, err := ev.totalDelay(c)
		switch {
		case errors.Is(err, errInfeasible):
			d = math.Inf(1)
		case err != nil:
			return nil, err
		}
		out[c.ID] = d
	}
	return out, nil
}

// totalDelay is Eq. 7: the sum of the worst-case delays of every server on
// the connection's path.
func (ev *evaluation) totalDelay(c *Connection) (float64, error) {
	if d, ok := ev.prefilledDelay[c.ID]; ok {
		return d, nil
	}
	b, err := ev.breakdown(c)
	if err != nil {
		return 0, err
	}
	return b.Total, nil
}

// breakdown assembles the per-server decomposition.
func (ev *evaluation) breakdown(c *Connection) (Breakdown, error) {
	var bd Breakdown
	if _, err := ev.walk(c, &bd, math.Inf(1)); err != nil {
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

// walk is Eq. 7 server by server: it analyses c's path in order — sender MAC,
// optional regulator, each shared port, receiver MAC — filling bd (whose
// Ports buffer it reuses) and stopping as soon as the delay accumulated so
// far exceeds limit, or a server has no finite bound (the error). It returns
// cutNone exactly when bd is complete and bd.Total <= limit; reporting
// callers pass +Inf and only ever see an error.
//
// The accumulated delay tested after each server is bd.sum() with the servers
// not yet analysed still at zero — the very expression that yields Total, so
// a partial sum can never exceed the total it stands in for (see sum), and
// stopping on it loses no verdict. The receiver MAC, the deepest scan of a
// low-allocation probe, is never run for a connection that has missed its
// deadline before reaching it.
func (ev *evaluation) walk(c *Connection, bd *Breakdown, limit float64) (cutoff, error) {
	mac, err := ev.srcMAC(c)
	if err != nil {
		return cutSrcMAC, err
	}
	*bd = Breakdown{SrcMAC: mac.Delay, Constant: c.Route.ConstantDelay, SrcBufferBits: mac.BufferBits, Ports: bd.Ports[:0]}
	if !c.Route.CrossesBackbone {
		if bd.Total = bd.sum(); bd.Total > limit {
			return cutSrcMAC, nil
		}
		return cutNone, nil
	}
	if c.Shape != nil {
		sh, err := ev.shaperResult(c, mac.Output)
		if err != nil {
			return cutSrcMAC, err
		}
		bd.Shaper = sh.Delay
	}
	if bd.sum() > limit {
		return cutSrcMAC, nil
	}
	for _, p := range c.Route.Ports {
		d, err := ev.muxDelay(p)
		if err != nil {
			return cutPort, err
		}
		bd.Ports = append(bd.Ports, PortDelay{Port: p, Delay: d})
		if bd.sum() > limit {
			return cutPort, nil
		}
	}
	dst, err := ev.dstMAC(c)
	if err != nil {
		return cutDstMAC, err
	}
	bd.DstMAC = dst.Delay
	bd.DstBufferBits = dst.BufferBits
	if bd.Total = bd.sum(); bd.Total > limit {
		return cutDstMAC, nil
	}
	return cutNone, nil
}

// sum is the Eq. 7 summation, in the one order every total and every partial
// sum of this package is taken: sender MAC, regulator, constants and receiver
// MAC first, then the ports in traversal order. A server not analysed yet
// contributes its zero value, and adding zero is exact, so on a partly filled
// breakdown this is Total with the missing terms zeroed. Rounded addition is
// monotone in each argument and no server delay is negative, so that value is
// at most the eventual Total — exactly, not to a tolerance.
//
//fafvet:hotpath
func (bd *Breakdown) sum() float64 {
	t := bd.SrcMAC + bd.Shaper + bd.Constant + bd.DstMAC
	for _, pd := range bd.Ports {
		t += pd.Delay
	}
	return t
}

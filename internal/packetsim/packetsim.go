// Package packetsim is the end-to-end validation harness (experiment E3 in
// DESIGN.md): it builds a packet-level discrete-event model of the whole
// FDDI-ATM-FDDI network — timed-token rings, interface devices that segment
// frames into cells and reassemble them, FIFO switch ports — drives it with
// the connections' declared traffic, measures per-packet end-to-end delays,
// and reports them next to the analytic worst-case bounds of internal/core.
// Every measured delay must stay below its bound; the ratio between them
// shows how much slack the deterministic analysis leaves.
package packetsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fafnet/internal/atm"
	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
	"fafnet/internal/shaper"
	"fafnet/internal/stats"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// Config parameterizes one validation run.
type Config struct {
	// Topology describes the network (must match the connections' routes).
	Topology topo.Config
	// Connections are the admitted connections with their allocations
	// (HS/HR) already chosen, e.g. by core.Controller.
	Connections []*core.Connection
	// Duration is the simulated time span (default 2 s).
	Duration float64
	// Seed drives source phase randomization when RandomPhases is set.
	Seed int64
	// RandomPhases staggers the sources' period starts uniformly; when
	// false all sources start in phase at t=0 (closer to the adversarial
	// alignment the analysis assumes).
	RandomPhases bool
	// AsyncBackground, when positive, floods every ring host with that many
	// maximum-size asynchronous frames per TTRT. The timed-token protocol
	// serves them only from token earliness, so the analytic bounds must
	// hold regardless — this exercises exactly that.
	AsyncBackground int
}

// histBins is the number of buckets in each ConnResult.Hist.
const histBins = 24

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 2
	}
	return c
}

// ConnResult reports one connection's measured delays against its bound.
type ConnResult struct {
	// ID identifies the connection.
	ID string
	// Bound is the analytic worst-case end-to-end delay.
	Bound float64
	// Delays samples the measured per-frame end-to-end delays, from the
	// frame's emission at the source to its last bit reaching the
	// destination host.
	Delays stats.Sample
	// Hist bins the measured delays over [0, Bound).
	Hist *stats.Histogram
	// FramesDelivered counts frames that completed the journey.
	FramesDelivered int
}

// WithinBound reports whether every measured delay stayed below the bound.
func (r ConnResult) WithinBound() bool {
	return r.Delays.N() == 0 || r.Delays.Max() <= r.Bound
}

// Result is the outcome of a validation run.
type Result struct {
	// PerConn holds one entry per connection, sorted by id.
	PerConn []ConnResult
	// Duration is the simulated span.
	Duration float64
}

// AllWithinBounds reports whether no connection violated its analytic bound.
func (r Result) AllWithinBounds() bool {
	for _, c := range r.PerConn {
		if !c.WithinBound() {
			return false
		}
	}
	return true
}

// Run executes the packet-level simulation and returns per-connection
// measured delays and analytic bounds.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Connections) == 0 {
		return Result{}, errors.New("packetsim: no connections to simulate")
	}
	net, err := topo.NewNetwork(cfg.Topology)
	if err != nil {
		return Result{}, err
	}
	analyzer, err := core.NewAnalyzer(net, core.AnalysisOptions{})
	if err != nil {
		return Result{}, err
	}
	bounds, err := analyzer.Delays(cfg.Connections)
	if err != nil {
		return Result{}, fmt.Errorf("packetsim: computing bounds: %w", err)
	}
	for id, bound := range bounds {
		if math.IsInf(bound, 1) {
			return Result{}, fmt.Errorf("packetsim: connection %q has no finite bound; fix its allocation first", id)
		}
	}

	b, err := build(cfg, net)
	if err != nil {
		return Result{}, err
	}
	for id, st := range b.results {
		hist, herr := stats.NewHistogram(0, bounds[id], histBins)
		if herr != nil {
			return Result{}, herr
		}
		st.Hist = hist
	}
	if err := b.startSources(cfg); err != nil {
		return Result{}, err
	}
	if cfg.AsyncBackground > 0 {
		b.startAsyncBackground(cfg)
	}
	for _, ring := range b.rings {
		if err := ring.Start(); err != nil {
			return Result{}, err
		}
	}
	b.sim.Run(cfg.Duration)

	res := Result{Duration: cfg.Duration}
	ids := make([]string, 0, len(b.results))
	for id := range b.results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := b.results[id]
		st.Bound = bounds[id]
		res.PerConn = append(res.PerConn, *st)
	}
	return res, nil
}

// builder wires the DES components together.
type builder struct {
	sim     *des.Simulator
	net     *topo.Network
	rng     *des.RNG
	conns   map[string]*core.Connection
	ordered []*core.Connection
	results map[string]*ConnResult

	rings      []*fddi.RingSim
	segmenters []*ifdev.SegmenterSim
	// shapers holds the ingress regulator of each shaped connection.
	shapers map[string]*shaper.Sim
	// idStation maps a cross-backbone connection to the station index on
	// its destination ring that models its share of the receiving interface
	// device's MAC (the paper's one-connection-per-station reduction).
	idStation map[string]int
}

func build(cfg Config, net *topo.Network) (*builder, error) {
	b := &builder{
		sim:       des.NewSimulator(),
		net:       net,
		rng:       des.NewRNG(cfg.Seed),
		conns:     make(map[string]*core.Connection),
		results:   make(map[string]*ConnResult),
		shapers:   make(map[string]*shaper.Sim),
		idStation: make(map[string]int),
	}
	tc := net.Config()

	incoming := make([][]*core.Connection, tc.NumRings)
	for _, c := range cfg.Connections {
		if c == nil {
			return nil, errors.New("packetsim: nil connection")
		}
		if _, dup := b.conns[c.ID]; dup {
			return nil, fmt.Errorf("packetsim: duplicate connection %q", c.ID)
		}
		b.conns[c.ID] = c
		b.ordered = append(b.ordered, c)
		b.results[c.ID] = &ConnResult{ID: c.ID}
		if c.Route.CrossesBackbone {
			incoming[c.Dst.Ring] = append(incoming[c.Dst.Ring], c)
		}
	}

	// ATM fabric, inside-out: reassemblers, switches, ports, segmenters.
	reasm := make([]*ifdev.ReassemblerSim, tc.NumRings)
	for r := 0; r < tc.NumRings; r++ {
		r := r
		rs, err := ifdev.NewReassemblerSim(b.sim, tc.ID, func(f ifdev.ReassembledFrame) {
			b.deliverToDestRing(r, f)
		})
		if err != nil {
			return nil, err
		}
		reasm[r] = rs
	}
	switches := make([]*atm.SwitchSim, tc.NumSwitches)
	for s := 0; s < tc.NumSwitches; s++ {
		sw, err := atm.NewSwitchSim(b.sim, tc.Switch)
		if err != nil {
			return nil, err
		}
		switches[s] = sw
	}
	downPorts := make([]*atm.PortSim, tc.NumRings)
	for r := 0; r < tc.NumRings; r++ {
		p, err := atm.NewPortSim(b.sim, tc.LinkBps, tc.LinkPropagation, reasm[r].ReceiveCell)
		if err != nil {
			return nil, err
		}
		downPorts[r] = p
	}
	interPorts := make(map[[2]int]*atm.PortSim)
	for a := 0; a < tc.NumSwitches; a++ {
		for c := 0; c < tc.NumSwitches; c++ {
			if a == c {
				continue
			}
			p, err := atm.NewPortSim(b.sim, tc.LinkBps, tc.LinkPropagation, switches[c].Receive)
			if err != nil {
				return nil, err
			}
			interPorts[[2]int{a, c}] = p
		}
	}
	b.segmenters = make([]*ifdev.SegmenterSim, tc.NumRings)
	for r := 0; r < tc.NumRings; r++ {
		p, err := atm.NewPortSim(b.sim, tc.LinkBps, tc.LinkPropagation, switches[net.SwitchOf(r)].Receive)
		if err != nil {
			return nil, err
		}
		seg, err := ifdev.NewSegmenterSim(b.sim, tc.ID, p)
		if err != nil {
			return nil, err
		}
		b.segmenters[r] = seg
	}

	// Rings: hosts 0..L−1, the sender-side interface device at L, then one
	// station per incoming connection.
	for r := 0; r < tc.NumRings; r++ {
		r := r
		nStations := tc.HostsPerRing + 1 + len(incoming[r])
		ring, err := fddi.NewRingSim(b.sim, net.RingConfig(r), nStations, func(f fddi.DeliveredFrame) {
			b.dispatch(r, f)
		})
		if err != nil {
			return nil, err
		}
		b.rings = append(b.rings, ring)
		for i, c := range incoming[r] {
			b.idStation[c.ID] = tc.HostsPerRing + 1 + i
		}
	}

	// Per-connection wiring: allocations, ingress regulators, switch routes.
	for _, c := range b.ordered {
		if err := b.rings[c.Src.Ring].SetAllocation(c.Src.Index, c.HS); err != nil {
			return nil, fmt.Errorf("packetsim: sender allocation for %q: %w", c.ID, err)
		}
		if c.Shape != nil && c.Route.CrossesBackbone {
			srcRing := c.Src.Ring
			seg := b.segmenters[srcRing]
			sh, err := shaper.NewSim(b.sim, *c.Shape, func(id string, bits, origin float64) {
				if err := seg.ReceiveFrameAt(id, bits, origin); err != nil {
					panic(fmt.Sprintf("packetsim: segmenting shaped frame: %v", err))
				}
			})
			if err != nil {
				return nil, fmt.Errorf("packetsim: shaper for %q: %w", c.ID, err)
			}
			b.shapers[c.ID] = sh
		}
		if !c.Route.CrossesBackbone {
			continue
		}
		if err := b.rings[c.Dst.Ring].SetAllocation(b.idStation[c.ID], c.HR); err != nil {
			return nil, fmt.Errorf("packetsim: receiver allocation for %q: %w", c.ID, err)
		}
		sa, sb := net.SwitchOf(c.Src.Ring), net.SwitchOf(c.Dst.Ring)
		if sa == sb {
			if err := switches[sa].Route(c.ID, downPorts[c.Dst.Ring]); err != nil {
				return nil, err
			}
			continue
		}
		if err := switches[sa].Route(c.ID, interPorts[[2]int{sa, sb}]); err != nil {
			return nil, err
		}
		if err := switches[sb].Route(c.ID, downPorts[c.Dst.Ring]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// dispatch handles a frame delivered on ring r: sender-side frames reaching
// the interface device get segmented into cells; destination-side frames
// reaching a host close the measurement.
func (b *builder) dispatch(r int, f fddi.DeliveredFrame) {
	c := b.conns[f.ConnID]
	if c == nil {
		return
	}
	idStationIdx := b.net.Config().HostsPerRing
	switch {
	case c.Route.CrossesBackbone && r == c.Src.Ring && f.Dst == idStationIdx:
		// Optional ingress regulator, then segmentation. The cells carry
		// the frame's emission time in Created.
		if sh := b.shapers[c.ID]; sh != nil {
			if err := sh.Submit(f.ConnID, f.Bits, f.Enqueued); err != nil {
				panic(fmt.Sprintf("packetsim: shaping: %v", err))
			}
			return
		}
		if err := b.segmenters[r].ReceiveFrameAt(f.ConnID, f.Bits, f.Enqueued); err != nil {
			panic(fmt.Sprintf("packetsim: segmenting: %v", err))
		}
	case r == c.Dst.Ring && f.Dst == c.Dst.Index:
		st := b.results[c.ID]
		d := b.sim.Now() - f.Enqueued
		st.Delays.Add(d)
		if st.Hist != nil {
			st.Hist.Add(d)
		}
		st.FramesDelivered++
	}
}

// deliverToDestRing enqueues a reassembled frame at the destination ring's
// per-connection interface-device station, preserving the emission time.
// The interface device re-frames for its own allocation: a timed-token MAC
// cannot transmit a frame longer than its per-rotation holding HR, so a
// reassembled payload larger than FrameBits(HR) — possible whenever the CAC
// granted HR < HS — is split into HR-sized frames, exactly the re-framing
// the analytic receiver-MAC model (ifdev.ReceiverConversion) assumes.
func (b *builder) deliverToDestRing(ring int, f ifdev.ReassembledFrame) {
	c := b.conns[f.ConnID]
	if c == nil {
		return
	}
	station, ok := b.idStation[f.ConnID]
	if !ok {
		return
	}
	maxBits := b.net.RingConfig(ring).FrameBits(c.HR)
	for remaining := f.PayloadBits; remaining > 0; remaining -= maxBits {
		err := b.rings[ring].EnqueueStamped(fddi.Frame{
			Bits:     math.Min(remaining, maxBits),
			ConnID:   f.ConnID,
			Src:      station,
			Dst:      c.Dst.Index,
			Enqueued: f.FirstCellCreated, // the original emission instant
		})
		if err != nil {
			panic(fmt.Sprintf("packetsim: enqueue on destination ring: %v", err))
		}
	}
}

// startSources schedules the traffic generators. Sources emit in accordance
// with their declared descriptors: bursts are paced at the declared peak
// rate so the generated traffic never exceeds its envelope (otherwise the
// measured delays could legitimately exceed the analytic bounds).
func (b *builder) startSources(cfg Config) error {
	for _, c := range b.ordered {
		c := c
		frameBits := b.net.RingConfig(c.Src.Ring).FrameBits(c.HS)
		var phase float64
		switch src := c.Source.(type) {
		case traffic.DualPeriodic:
			if cfg.RandomPhases {
				phase = b.rng.Uniform(0, src.P1)
			}
			if err := b.scheduleDualPeriodic(c, src, frameBits, phase); err != nil {
				return err
			}
		case traffic.Periodic:
			if cfg.RandomPhases {
				phase = b.rng.Uniform(0, src.P)
			}
			dual := traffic.DualPeriodic{C1: src.C, P1: src.P, C2: src.C, P2: src.P, PeakBps: src.PeakBps}
			if err := b.scheduleDualPeriodic(c, dual, frameBits, phase); err != nil {
				return err
			}
		case traffic.CBR:
			if err := b.scheduleCBR(c, src, frameBits); err != nil {
				return err
			}
		case traffic.LeakyBucket:
			if err := b.scheduleLeakyBucket(c, src, frameBits); err != nil {
				return err
			}
		default:
			return fmt.Errorf("packetsim: connection %q: no generator for descriptor %T", c.ID, c.Source)
		}
	}
	return nil
}

// emitBurst paces `bits` onto the source MAC at the peak rate, in frame-
// sized chunks; each chunk is stamped with its own arrival-complete time.
func (b *builder) emitBurst(c *core.Connection, bits, frameBits, peak float64) error {
	dst := c.Dst.Index
	if c.Route.CrossesBackbone {
		dst = b.net.Config().HostsPerRing
	}
	offset := 0.0
	for bits > 0 {
		fb := math.Min(bits, frameBits)
		bits -= fb
		offset += fb / peak
		at := b.sim.Now() + offset
		frame := fddi.Frame{Bits: fb, ConnID: c.ID, Src: c.Src.Index, Dst: dst, Enqueued: at}
		if _, err := b.sim.Schedule(at, func() {
			if err := b.rings[c.Src.Ring].EnqueueStamped(frame); err != nil {
				panic(fmt.Sprintf("packetsim: source enqueue: %v", err))
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// scheduleDualPeriodic emits C2-sized bursts every P2 until C1 bits have
// been sent in the current P1 period, repeating every P1.
func (b *builder) scheduleDualPeriodic(c *core.Connection, src traffic.DualPeriodic, frameBits, phase float64) error {
	var period func()
	period = func() {
		start := b.sim.Now()
		sent := 0.0
		for i := 0; sent < src.C1; i++ {
			burst := math.Min(src.C2, src.C1-sent)
			at := start + float64(i)*src.P2
			if at-start >= src.P1 {
				break
			}
			sent += burst
			if _, err := b.sim.Schedule(at, func() {
				if err := b.emitBurst(c, burst, frameBits, src.PeakBps); err != nil {
					panic(fmt.Sprintf("packetsim: emitting burst: %v", err))
				}
			}); err != nil {
				panic(fmt.Sprintf("packetsim: scheduling burst: %v", err))
			}
		}
		if _, err := b.sim.Schedule(start+src.P1, period); err != nil {
			panic(fmt.Sprintf("packetsim: scheduling period: %v", err))
		}
	}
	_, err := b.sim.Schedule(phase, period)
	return err
}

// startAsyncBackground floods every host station of every ring with
// maximum-size asynchronous frames, refreshed once per TTRT.
func (b *builder) startAsyncBackground(cfg Config) {
	tc := b.net.Config()
	var tick func()
	tick = func() {
		if b.sim.Now() > cfg.Duration {
			return
		}
		for r := range b.rings {
			for host := 0; host < tc.HostsPerRing; host++ {
				for k := 0; k < cfg.AsyncBackground; k++ {
					// Keep the backlog bounded: skip when the queue still
					// holds the previous tick's frames.
					if b.rings[r].AsyncQueueLen(host) >= 4*cfg.AsyncBackground {
						break
					}
					_ = b.rings[r].EnqueueAsync(fddi.Frame{
						Bits:   fddi.MaxFrameBits,
						ConnID: "async-bg",
						Src:    host,
						Dst:    (host + 1) % tc.HostsPerRing,
					})
				}
			}
		}
		if _, err := b.sim.After(tc.Ring.TTRT, tick); err != nil {
			panic(fmt.Sprintf("packetsim: scheduling async background: %v", err))
		}
	}
	if _, err := b.sim.Schedule(0, tick); err != nil {
		panic(fmt.Sprintf("packetsim: starting async background: %v", err))
	}
}

// scheduleLeakyBucket drains the bucket greedily at t=0 — the adversarial
// start the envelope σ + ρt permits — then sustains the token rate ρ. The
// burst is paced at the declared peak (the ring's line rate when uncapped),
// so emission never exceeds the descriptor the bounds were computed from.
func (b *builder) scheduleLeakyBucket(c *core.Connection, src traffic.LeakyBucket, frameBits float64) error {
	if src.Rho <= 0 {
		return fmt.Errorf("packetsim: connection %q: leaky-bucket rate must be positive", c.ID)
	}
	peak := src.PeakBps
	if peak <= 0 {
		peak = b.net.RingConfig(c.Src.Ring).BandwidthBps
	}
	if src.Sigma > 0 {
		if _, err := b.sim.Schedule(0, func() {
			if err := b.emitBurst(c, src.Sigma, frameBits, peak); err != nil {
				panic(fmt.Sprintf("packetsim: emitting bucket burst: %v", err))
			}
		}); err != nil {
			return err
		}
	}
	return b.scheduleCBR(c, traffic.CBR{RateBps: src.Rho}, frameBits)
}

// scheduleCBR emits one frame every frameBits/rate seconds.
func (b *builder) scheduleCBR(c *core.Connection, src traffic.CBR, frameBits float64) error {
	if src.RateBps <= 0 {
		return fmt.Errorf("packetsim: connection %q: CBR rate must be positive", c.ID)
	}
	interval := frameBits / src.RateBps
	var tick func()
	tick = func() {
		if err := b.emitBurst(c, frameBits, frameBits, src.RateBps); err != nil {
			panic(fmt.Sprintf("packetsim: emitting CBR frame: %v", err))
		}
		if _, err := b.sim.After(interval, tick); err != nil {
			panic(fmt.Sprintf("packetsim: scheduling CBR tick: %v", err))
		}
	}
	_, err := b.sim.Schedule(0, tick)
	return err
}

package fddi

import (
	"errors"
	"fmt"

	"fafnet/internal/des"
	"fafnet/internal/units"
)

// Frame is one FDDI frame traversing the simulated ring.
type Frame struct {
	// Bits is the frame payload size.
	Bits float64
	// ConnID identifies the connection the frame belongs to.
	ConnID string
	// Src and Dst are station indices on the ring.
	Src, Dst int
	// Enqueued is the simulation time at which the frame entered the MAC
	// transmit queue.
	Enqueued float64
}

// DeliveredFrame reports a frame's arrival at its destination station.
type DeliveredFrame struct {
	Frame
	// Delivered is the simulation time at which the last bit reached Dst.
	Delivered float64
}

// RingSim is a packet-level simulator of the FDDI timed-token protocol
// restricted to synchronous traffic: the token circulates station to
// station; each visit lets a station transmit queued frames for up to its
// synchronous allocation H. It exists to validate the analytic bounds of
// Theorem 1: every delay it measures must be below the analysis' worst case.
//
// Following the paper's one-connection-per-station reduction, interface
// devices carrying several connections are modeled as one station per
// connection.
type RingSim struct {
	sim        *des.Simulator
	cfg        RingConfig
	stations   []simStation
	onDeliver  func(DeliveredFrame)
	started    bool
	tokenVisit int64 // statistics: number of token arrivals processed
	// The ring has one token, so at most one token event is pending: the
	// handler is bound once and reads the station it arrives at from next.
	next  int
	token func() // r.passToken
}

type simStation struct {
	h     float64
	queue []Frame
	// async is the non-real-time transmit queue. Async frames may only be
	// sent while the token is ahead of schedule (the timed-token rule), so
	// they can never erode the synchronous guarantees.
	async []Frame
	// lastArrival is the previous token-arrival time at this station, for
	// the token-rotation-timer check.
	lastArrival float64
	hasArrival  bool
}

// NewRingSim creates a ring with numStations stations, all initially holding
// no synchronous allocation. onDeliver, if non-nil, is invoked when a frame
// fully arrives at its destination.
func NewRingSim(sim *des.Simulator, cfg RingConfig, numStations int, onDeliver func(DeliveredFrame)) (*RingSim, error) {
	if sim == nil {
		return nil, errors.New("fddi: RingSim requires a simulator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numStations < 2 {
		return nil, fmt.Errorf("fddi: ring needs at least 2 stations, got %d", numStations)
	}
	r := &RingSim{
		sim:       sim,
		cfg:       cfg,
		stations:  make([]simStation, numStations),
		onDeliver: onDeliver,
	}
	r.token = r.passToken
	return r, nil
}

// SetAllocation assigns station its synchronous allocation h (seconds per
// token visit). The protocol constraint ΣH <= TTRT − Δ is enforced.
func (r *RingSim) SetAllocation(station int, h float64) error {
	if station < 0 || station >= len(r.stations) {
		return fmt.Errorf("fddi: station %d out of range [0,%d)", station, len(r.stations))
	}
	if h < 0 {
		return fmt.Errorf("fddi: allocation %v must be non-negative", h)
	}
	var sum float64
	for i, st := range r.stations {
		if i != station {
			sum += st.h
		}
	}
	if sum+h > r.cfg.UsableTTRT()*(1+units.RelTol) {
		return fmt.Errorf("fddi: total allocation %v would exceed usable TTRT %v", sum+h, r.cfg.UsableTTRT())
	}
	r.stations[station].h = h
	return nil
}

// Enqueue places a frame in the source station's MAC transmit queue,
// stamping Enqueued with the current time. The frame must fit within the
// station's allocation, or it could never be transmitted.
func (r *RingSim) Enqueue(f Frame) error {
	f.Enqueued = r.sim.Now()
	return r.EnqueueStamped(f)
}

// EnqueueStamped is Enqueue but preserves the caller's Enqueued timestamp,
// so a multi-segment harness can measure delays from the original emission
// instant.
func (r *RingSim) EnqueueStamped(f Frame) error {
	if f.Src < 0 || f.Src >= len(r.stations) {
		return fmt.Errorf("fddi: source station %d out of range", f.Src)
	}
	if f.Dst < 0 || f.Dst >= len(r.stations) {
		return fmt.Errorf("fddi: destination station %d out of range", f.Dst)
	}
	if f.Bits <= 0 {
		return fmt.Errorf("fddi: frame size %v must be positive", f.Bits)
	}
	st := &r.stations[f.Src]
	if tx := f.Bits / r.cfg.BandwidthBps; tx > st.h*(1+units.RelTol) {
		return fmt.Errorf("fddi: frame needs %v s but station %d allocation is only %v s", tx, f.Src, st.h)
	}
	st.queue = append(st.queue, f)
	return nil
}

// QueueLen returns the number of synchronous frames waiting at a station.
func (r *RingSim) QueueLen(station int) int { return len(r.stations[station].queue) }

// EnqueueAsync places a frame in the station's asynchronous (non-real-time)
// queue. Async frames are transmitted only when the token arrives ahead of
// schedule, per the timed-token protocol: the synchronous guarantees of
// every station hold regardless of async load.
func (r *RingSim) EnqueueAsync(f Frame) error {
	if f.Src < 0 || f.Src >= len(r.stations) {
		return fmt.Errorf("fddi: source station %d out of range", f.Src)
	}
	if f.Dst < 0 || f.Dst >= len(r.stations) {
		return fmt.Errorf("fddi: destination station %d out of range", f.Dst)
	}
	if f.Bits <= 0 {
		return fmt.Errorf("fddi: frame size %v must be positive", f.Bits)
	}
	if f.Bits > MaxFrameBits {
		return fmt.Errorf("fddi: async frame of %v bits exceeds the FDDI maximum %v", f.Bits, MaxFrameBits)
	}
	f.Enqueued = r.sim.Now()
	st := &r.stations[f.Src]
	st.async = append(st.async, f)
	return nil
}

// AsyncQueueLen returns the number of asynchronous frames waiting at a
// station.
func (r *RingSim) AsyncQueueLen(station int) int { return len(r.stations[station].async) }

// TokenVisits returns the number of token arrivals processed so far.
func (r *RingSim) TokenVisits() int64 { return r.tokenVisit }

// Start releases the token at station 0. It may be called once.
func (r *RingSim) Start() error {
	if r.started {
		return errors.New("fddi: ring already started")
	}
	r.started = true
	r.next = 0
	if _, err := r.sim.After(0, r.token); err != nil {
		return fmt.Errorf("fddi: scheduling initial token: %w", err)
	}
	return nil
}

// tokenArrive services station i and forwards the token: synchronous frames
// up to the station's allocation H, then asynchronous frames only for as
// long as the token-rotation timer shows the token ahead of schedule.
func (r *RingSim) tokenArrive(i int) {
	r.tokenVisit++
	st := &r.stations[i]
	now := r.sim.Now()
	cursor := now
	budget := st.h
	for len(st.queue) > 0 {
		f := st.queue[0]
		tx := f.Bits / r.cfg.BandwidthBps
		if tx > budget+units.Eps {
			break // frame does not fit in the remaining synchronous time
		}
		budget -= tx
		cursor += tx
		st.queue = st.queue[1:]
		r.scheduleDelivery(f, cursor)
	}

	// Timed-token rule for the asynchronous class: transmission is allowed
	// while the measured rotation (time since the token last left here)
	// stays under the TTRT.
	asyncBudget := 0.0
	if st.hasArrival {
		if early := r.cfg.TTRT - (now - st.lastArrival); early > 0 {
			asyncBudget = early
		}
	}
	for len(st.async) > 0 {
		f := st.async[0]
		tx := f.Bits / r.cfg.BandwidthBps
		if tx > asyncBudget+units.Eps {
			break
		}
		asyncBudget -= tx
		cursor += tx
		st.async = st.async[1:]
		r.scheduleDelivery(f, cursor)
	}
	st.lastArrival = now
	st.hasArrival = true

	r.next = (i + 1) % len(r.stations)
	if _, err := r.sim.Schedule(cursor+r.cfg.HopLatency, r.token); err != nil {
		// Unreachable: cursor >= now and the hop latency is non-negative.
		panic(fmt.Sprintf("fddi: token scheduling failed: %v", err))
	}
}

// passToken is the token event: the token reaches station r.next.
func (r *RingSim) passToken() { r.tokenArrive(r.next) }

// scheduleDelivery delivers f's last bit after it propagates from Src to Dst.
func (r *RingSim) scheduleDelivery(f Frame, endTx float64) {
	hops := f.Dst - f.Src
	if hops < 0 {
		hops += len(r.stations)
	}
	at := endTx + float64(hops)*r.cfg.HopLatency
	if _, err := r.sim.Schedule(at, func() {
		if r.onDeliver != nil {
			r.onDeliver(DeliveredFrame{Frame: f, Delivered: at})
		}
	}); err != nil {
		panic(fmt.Sprintf("fddi: delivery scheduling failed: %v", err))
	}
}

// PropagationDelay returns the Delay_Line bound (Eq. 14): the fixed time for
// a bit to propagate from station src to station dst around the ring.
func (r *RingSim) PropagationDelay(src, dst int) float64 {
	hops := dst - src
	if hops < 0 {
		hops += len(r.stations)
	}
	return float64(hops) * r.cfg.HopLatency
}

// Package des provides the discrete-event simulation kernel shared by the
// admission-level simulator (Section 6 of the paper) and the packet-level
// FDDI/ATM simulators: an event calendar with a monotonic clock, plus seeded
// random variates for Poisson arrival processes and exponential lifetimes.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Event is a scheduled callback. Fire runs when the simulation clock reaches
// the event's time.
type Event struct {
	// Time is the absolute simulation time (seconds) at which Fire runs.
	Time float64
	// Fire is the event action. It may schedule further events.
	Fire func()

	seq   uint64 // tie-breaker: FIFO order among equal-time events
	index int    // heap bookkeeping; -1 once removed
}

// eventQueue implements heap.Interface ordered by (Time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Simulator is a sequential discrete-event simulator. The zero value is not
// usable; construct with NewSimulator. Simulator is not safe for concurrent
// use: all scheduling must happen from event callbacks or between Run calls.
type Simulator struct {
	now    float64
	queue  eventQueue
	seq    uint64
	halted bool
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of events waiting in the calendar.
func (s *Simulator) Pending() int { return s.queue.Len() }

// ErrPastEvent is returned when an event is scheduled before the current
// simulation time.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// Schedule registers fire to run at absolute time t and returns the event
// handle (usable with Cancel). It returns ErrPastEvent if t precedes the
// current clock.
func (s *Simulator) Schedule(t float64, fire func()) (*Event, error) {
	if t < s.now {
		return nil, fmt.Errorf("%w: t=%v before now=%v", ErrPastEvent, t, s.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("des: event time %v is not finite", t)
	}
	ev := &Event{Time: t, Fire: fire, seq: s.seq}
	s.seq++
	heap.Push(&s.queue, ev)
	return ev, nil
}

// After registers fire to run delay seconds from now.
func (s *Simulator) After(delay float64, fire func()) (*Event, error) {
	return s.Schedule(s.now+delay, fire)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false.
func (s *Simulator) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 || ev.index >= s.queue.Len() || s.queue[ev.index] != ev {
		return false
	}
	heap.Remove(&s.queue, ev.index)
	ev.index = -1
	return true
}

// Halt stops the current Run after the event being processed returns.
func (s *Simulator) Halt() { s.halted = true }

// Run processes events in time order until the calendar is empty, the clock
// would pass until (exclusive upper bound; events at exactly until still
// fire), or Halt is called. It returns the number of events processed.
func (s *Simulator) Run(until float64) int {
	s.halted = false
	processed := 0
	for s.queue.Len() > 0 && !s.halted {
		next := s.queue[0]
		if next.Time > until {
			break
		}
		heap.Pop(&s.queue)
		next.index = -1
		s.now = next.Time
		if next.Fire != nil {
			next.Fire()
		}
		processed++
	}
	if s.now < until && s.queue.Len() == 0 {
		// Advance the clock so successive bounded runs compose naturally.
		s.now = until
	}
	return processed
}

// Step processes exactly one event (if any) and reports whether one fired.
func (s *Simulator) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	next := heap.Pop(&s.queue).(*Event)
	next.index = -1
	s.now = next.Time
	if next.Fire != nil {
		next.Fire()
	}
	return true
}

// RNG wraps a seeded deterministic random source with the variate generators
// the experiments need. It is not safe for concurrent use.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Exp returns an exponential variate with the given mean (seconds).
// mean must be positive.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("des: exponential mean %v must be positive", mean))
	}
	return g.r.ExpFloat64() * mean
}

// Uniform returns a variate uniform on [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("des: uniform bounds inverted: [%v, %v)", lo, hi))
	}
	return lo + g.r.Float64()*(hi-lo)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PoissonProcess generates inter-arrival times for a Poisson process of
// intensity λ (events per second — a frequency, not a data rate) using the
// wrapped RNG.
type PoissonProcess struct {
	rng    *RNG
	lambda float64
}

// NewPoissonProcess returns a Poisson process with intensity lambda in events
// per second; lambda must be positive.
func NewPoissonProcess(rng *RNG, lambda float64) (*PoissonProcess, error) {
	if lambda <= 0 || !positiveFinite(1/lambda) {
		return nil, fmt.Errorf("des: Poisson intensity %v must be positive, with a finite mean gap", lambda)
	}
	if rng == nil {
		return nil, errors.New("des: Poisson process requires an RNG")
	}
	return &PoissonProcess{rng: rng, lambda: lambda}, nil
}

// Next returns the time to the next arrival (an Exp(1/λ) variate).
func (p *PoissonProcess) Next() float64 { return p.rng.Exp(1 / p.lambda) }

// Rate returns the configured arrival intensity λ.
func (p *PoissonProcess) Rate() float64 { return p.lambda }

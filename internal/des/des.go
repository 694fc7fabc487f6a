// Package des provides the discrete-event simulation kernel shared by the
// admission-level simulator (Section 6 of the paper) and the packet-level
// FDDI/ATM simulators: an event calendar with a monotonic clock, plus seeded
// random variates for Poisson arrival processes and exponential lifetimes.
package des

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Event describes a scheduled event.
type Event struct {
	// Time is the absolute simulation time (seconds) at which the event fires.
	Time float64
}

// entry is one pending event, held by value in the calendar.
type entry struct {
	time float64
	seq  uint64 // tie-breaker: FIFO order among equal-time events
	fire func()
}

// earlier orders events by (time, seq).
func earlier(t float64, seq uint64, u float64, useq uint64) bool {
	if t != u {
		return t < u
	}
	return seq < useq
}

// calendar is a 4-ary min-heap of entries ordered by (time, seq). Four
// children per node halve the depth of a binary heap, and entries live in
// the slice by value, so scheduling allocates only when the slice grows.
type calendar []entry

func (q *calendar) push(e entry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !earlier(e.time, e.seq, h[parent].time, h[parent].seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest entry; the calendar must be non-empty.
func (q *calendar) pop() entry {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{} // drop the handler reference
	h = h[:n]
	if n > 0 {
		// Sift the hole left at the root down to where last belongs.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			end := first + 4
			if end > n {
				end = n
			}
			least := first
			lt, ls := h[first].time, h[first].seq
			for c := first + 1; c < end; c++ {
				if earlier(h[c].time, h[c].seq, lt, ls) {
					least, lt, ls = c, h[c].time, h[c].seq
				}
			}
			if !earlier(lt, ls, last.time, last.seq) {
				break
			}
			h[i] = h[least]
			i = least
		}
		h[i] = last
	}
	*q = h
	return top
}

// Simulator is a sequential discrete-event simulator. The zero value is not
// usable; construct with NewSimulator. Simulator is not safe for concurrent
// use: all scheduling must happen from event callbacks or between Run calls.
type Simulator struct {
	now    float64
	queue  calendar
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
func (s *Simulator) Pending() int { return len(s.queue) }

// ErrPastEvent is returned when an event is scheduled before the current
// simulation time.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// Schedule registers fire to run at absolute time t. Events at equal times
// fire in the order they were scheduled. It returns ErrPastEvent if t
// precedes the current clock.
func (s *Simulator) Schedule(t float64, fire func()) (Event, error) {
	if t < s.now {
		return Event{}, fmt.Errorf("%w: t=%v before now=%v", ErrPastEvent, t, s.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Event{}, fmt.Errorf("des: event time %v is not finite", t)
	}
	s.queue.push(entry{time: t, seq: s.seq, fire: fire})
	s.seq++
	return Event{Time: t}, nil
}

// After registers fire to run delay seconds from now.
func (s *Simulator) After(delay float64, fire func()) (Event, error) {
	return s.Schedule(s.now+delay, fire)
}

// Halt stops the current Run after the event being processed returns.
func (s *Simulator) Halt() { s.halted = true }

// Run processes events in time order until the calendar is empty, the clock
// would pass until (exclusive upper bound; events at exactly until still
// fire), or Halt is called. It returns the number of events processed.
func (s *Simulator) Run(until float64) int {
	s.halted = false
	processed := 0
	for len(s.queue) > 0 && !s.halted {
		if s.queue[0].time > until {
			break
		}
		s.fire(s.queue.pop())
		processed++
	}
	if s.now < until && len(s.queue) == 0 {
		// Advance the clock so successive bounded runs compose naturally.
		s.now = until
	}
	return processed
}

// Step processes exactly one event (if any) and reports whether one fired.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	s.fire(s.queue.pop())
	return true
}

func (s *Simulator) fire(e entry) {
	s.now = e.time
	if e.fire != nil {
		e.fire()
	}
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

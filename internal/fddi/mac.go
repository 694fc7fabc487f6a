package fddi

import (
	"errors"
	"fmt"
	"math"

	"fafnet/internal/traffic"
	"fafnet/internal/units"
)

// Analysis failure modes. Both mean the connection has no finite delay bound
// under the probed allocation, so a CAC must treat the allocation as
// infeasible.
var (
	// ErrOverload indicates the long-term arrival rate exceeds the service
	// the synchronous allocation provides (ρ·TTRT > H·BW): the MAC backlog
	// grows without bound.
	ErrOverload = errors.New("fddi: allocation cannot sustain the long-term rate")
	// ErrBufferOverflow indicates the worst-case backlog F exceeds the MAC
	// buffer, so packets may be lost (Theorem 1 assigns an infinite delay).
	ErrBufferOverflow = errors.New("fddi: worst-case backlog exceeds the MAC buffer")
	// ErrNoConvergence indicates the busy-interval search did not terminate
	// within the configured bound; the allocation is too close to the
	// stability limit to analyze.
	ErrNoConvergence = errors.New("fddi: busy-interval search did not converge")
)

// MACParams parameterizes the FDDI_MAC server of Theorem 1 for one
// connection.
type MACParams struct {
	// Ring is the configuration of the ring the station sits on.
	Ring RingConfig
	// H is the synchronous allocation (seconds per token rotation).
	H float64
	// BufferBits is the MAC transmit buffer size S; 0 means unlimited.
	BufferBits float64
}

// maxBusyRotations bounds the busy-interval search in units of TTRT.
const maxBusyRotations = 4096

// Options carries the analysis's resources; the analysis needs none beyond
// its input today, and the zero value is the one to pass.
type Options struct{}

// MACResult is the outcome of Theorem 1 for one connection at one FDDI MAC.
type MACResult struct {
	// BusyInterval is B, the maximum length of a busy interval (seconds);
	// NaN from AnalyzeMACDelay when its delay search never reached it.
	BusyInterval float64
	// BufferBits is F, the maximum backlog the connection accumulates.
	BufferBits float64
	// Delay is χ, the worst-case queueing+transmission delay at the MAC.
	Delay float64
	// Output is the envelope of the connection's traffic as it leaves the
	// MAC: min(BW·I, A(I + χ)), the delay-based bound that stands in for
	// Eq. 12's Υ(I).
	Output traffic.Descriptor
}

// Avail returns avail(t): the minimum service (bits) the timed-token
// protocol guarantees the station within any interval of length t that
// starts when a backlog forms (Theorem 1):
//
//	avail(t) = max(0, (⌊t/TTRT⌋ − 1)·H·BW)
//
// The "−1" accounts for the token being up to a full rotation away.
func (p MACParams) Avail(t float64) float64 {
	if t <= 0 {
		return 0
	}
	k := math.Floor(t / p.Ring.TTRT)
	return max(0, (k-1)*p.H*p.Ring.BandwidthBps)
}

// Overloaded is Theorem 1's stability test, the one behind ErrOverload: the
// allocation must serve the long-term rate rhoBps with margin,
// ρ·TTRT < H·BW·(1 − units.RelTol), or the busy interval (and hence the
// delay) is unbounded. It reads nothing of the envelope but its rate, so a
// caller that knows the rate entering a MAC knows this verdict before any
// analysis.
func (p MACParams) Overloaded(rhoBps float64) bool {
	return rhoBps*p.Ring.TTRT >= p.RotationServiceBits()*(1-units.RelTol)
}

// RotationServiceBits returns H·BW, the bits of synchronous service one token
// rotation guarantees the station.
func (p MACParams) RotationServiceBits() float64 { return p.H * p.Ring.BandwidthBps }

func (p MACParams) validate() error {
	if err := p.Ring.Validate(); err != nil {
		return err
	}
	if p.H <= 0 {
		return fmt.Errorf("fddi: synchronous allocation H=%v must be positive", p.H)
	}
	if p.BufferBits < 0 {
		return fmt.Errorf("fddi: buffer size %v must be non-negative", p.BufferBits)
	}
	return nil
}

// AnalyzeMAC applies Theorem 1 to a connection with input envelope in and
// MAC parameters p: it returns the busy interval B (Eq. 9), the worst-case
// backlog F (Eq. 10), the worst-case delay χ (Eq. 11), and the output
// envelope min(BW·I, A(I + χ)). A non-nil error means no finite delay bound exists for
// this allocation (ErrOverload, ErrBufferOverflow, or ErrNoConvergence).
func AnalyzeMAC(in traffic.Descriptor, p MACParams, opts Options) (MACResult, error) {
	return analyzeMAC(in, p, true)
}

// AnalyzeMACDelay is AnalyzeMAC for a caller that reads neither the backlog
// nor the busy interval: F is computed only when p.BufferBits bounds it,
// since the overflow verdict reads it, and is NaN in the result otherwise.
// Without a buffer bound, when the closed-form bound proves that the busy
// interval ends within maxBusyRotations, B is scanned only as far as the
// delay search compares against it, and is NaN in the result unless the
// search reached it. χ, the output envelope and the error are AnalyzeMAC's,
// bit for bit: the delay search depends neither on whether the backlog
// search ran nor on how far B was scanned ahead.
func AnalyzeMACDelay(in traffic.Descriptor, p MACParams, opts Options) (MACResult, error) {
	return analyzeMAC(in, p, p.BufferBits > 0)
}

// analyzeMAC is Theorem 1, with the backlog scan run only when backlog is
// set.
func analyzeMAC(in traffic.Descriptor, p MACParams, backlog bool) (MACResult, error) {
	if in == nil {
		return MACResult{}, errors.New("fddi: AnalyzeMAC requires an input descriptor")
	}
	if err := p.validate(); err != nil {
		return MACResult{}, err
	}
	mMACAnalyses.Inc()
	if p.Overloaded(in.LongTermRate()) {
		mMACInfeasible.Inc()
		return MACResult{}, fmt.Errorf("%w: rho=%v bps, H·BW/TTRT=%v bps", ErrOverload, in.LongTermRate(), p.RotationServiceBits()/p.Ring.TTRT)
	}

	s := newMACScan(in, p)
	defer func() { mMACEnvelopeEvals.Add(uint64(s.evals)) }()
	// B is scanned on demand (AnalyzeMACDelay) where the closed-form bound
	// proves it ends; otherwise to its end first.
	if (backlog || !s.converges()) && !s.finish() {
		mMACInfeasible.Inc()
		return MACResult{}, fmt.Errorf("%w: no busy-interval end within %d rotations", ErrNoConvergence, maxBusyRotations)
	}

	backlogBits := s.scan(backlog)
	if p.BufferBits > 0 && backlogBits > p.BufferBits {
		mMACInfeasible.Inc()
		return MACResult{}, fmt.Errorf("%w: F=%v bits, S=%v bits", ErrBufferOverflow, backlogBits, p.BufferBits)
	}

	// The one output rule: every bit that leaves in a window of length I
	// arrived within I + χ. Sound on its own, and in general looser than
	// Eq. 12's Υ(I), which would need a second extremum search (DESIGN.md §2).
	out, err := traffic.NewDelayed(in, s.delay, p.Ring.BandwidthBps)
	if err != nil {
		return MACResult{}, fmt.Errorf("fddi: building output envelope: %w", err)
	}
	return MACResult{BusyInterval: s.busy, BufferBits: backlogBits, Delay: s.delay, Output: out}, nil
}

// boundPad is the relative padding of the closed-form bound's premise
// A(t) <= σ + ρ·t. A computed envelope value exceeds the exact one by float
// rounding (relative, of the order of 1e-16 per operation) and by the
// relative snapping of units.FloorDiv, which evaluates a source at a point
// up to units.RelTol·t later: an excess of at most a few RelTol on σ and on
// ρ·t. Padding both by 1e-6 covers it a hundredfold, and moves the bound by
// a millionth.
const boundPad = 1e-6

// DelayBound answers Theorem 1 for in and p in closed form, when it can:
//
//	χ <= (σ/svc + 2)·TTRT   when A(t) <= σ + ρ·t and ρ·TTRT < svc = H·BW.
//
// Every delay candidate of Eq. 11 is m(t)·TTRT − t with
// m(t) = ⌈A(t)/svc⌉ + 1 < A(t)/svc + 2, so it is below
// (σ/svc + 2)·TTRT − t·(1 − ρ·TTRT/svc), which the stability margin keeps
// at most (σ/svc + 2)·TTRT. σ is traffic.BurstBound(in) and ρ its long-term
// rate, both padded by boundPad.
//
// ok reports that AnalyzeMAC(in, p, ·) returns no error and a χ of at most
// bound: p is valid and sets no buffer bound (the overflow verdict needs F,
// which only the scan computes), the padded rate passes the overload test
// with room to spare, and the busy interval provably ends within
// maxBusyRotations — the line σ + ρ·t meets the service (k−1)·svc by
// rotation (σ + svc)/(svc − ρ·TTRT), and the busy-interval search stops at
// the first rotation where the envelope does. Otherwise ok is false and
// nothing is claimed: the bound never stands in for a result of the scan,
// only for the verdict "χ fits".
func DelayBound(in traffic.Descriptor, p MACParams) (bound float64, ok bool) {
	if in == nil || p.BufferBits > 0 || p.validate() != nil {
		return 0, false
	}
	sigma, rho := paddedLine(in)
	return closedFormBound(sigma, rho, p.RotationServiceBits(), p.Ring.TTRT)
}

// paddedLine returns the line σ + ρ·t DelayBound stands on: in's burst bound
// and long-term rate, each padded by boundPad, so that every computed
// envelope value is under it.
func paddedLine(in traffic.Descriptor) (sigma, rho float64) {
	return traffic.BurstBound(in) * (1 + boundPad), in.LongTermRate() * (1 + boundPad)
}

// closedFormBound is DelayBound's arithmetic on the padded line, svc and
// TTRT.
func closedFormBound(sigma, rho, svc, ttrt float64) (float64, bool) {
	margin := svc - rho*ttrt
	if math.IsInf(sigma, 0) || math.IsNaN(sigma) || !(margin > 0) {
		return 0, false
	}
	// The rotation by which the busy interval has ended, rounded up, plus one
	// for the rounding of the quotient.
	if k := math.Ceil((sigma+svc)/margin) + 1; k > maxBusyRotations {
		return 0, false
	}
	return (sigma/svc + 2) * ttrt, true
}

// Package traffic implements the maximum-rate-function traffic descriptor
// Γ(I) used by the delay analysis (Section 4.2 of the paper), together with
// the source models and envelope transforms the FDDI-ATM-FDDI servers need.
//
// A descriptor bounds the traffic of one connection at one point in the
// network: Bits(I) is the maximum number of payload bits that may arrive in
// ANY time window of length I seconds, so Γ(I) = Bits(I)/I is the maximum
// average rate over any such window. Every server analysis consumes the
// envelope of its input traffic and produces both a worst-case delay and the
// envelope of its output traffic, which feeds the next server downstream.
package traffic

// Descriptor is the maximum-rate-function traffic descriptor Γ(I).
//
// Implementations must guarantee that Bits is nondecreasing, that
// Bits(I) >= 0 for all I, and that Bits(I)/I converges to LongTermRate as
// I grows. Bits(I) for I <= 0 must be 0.
type Descriptor interface {
	// Bits returns A(I) = I·Γ(I): the maximum number of bits the connection
	// may produce in any interval of length interval seconds.
	//
	// Bits is the inner loop of every server analysis and every admission
	// probe; implementations must be allocation-free, non-blocking and
	// deterministic (TestSourceEvalAllocationFree runs every one).
	Bits(interval float64) float64

	// LongTermRate returns ρ = lim_{I→∞} Γ(I) in bits per second. It is the
	// quantity every stability check compares against allocated capacity.
	LongTermRate() float64
}

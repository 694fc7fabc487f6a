package core

import (
	"math"

	"fafnet/internal/traffic"
)

// This file fingerprints specifications and admitted-state so the sharded
// pipeline can recognize "the same decision problem" when it comes around
// again. The CAC verdict is a pure function of the candidate's specification
// and the admitted set's (endpoints, traffic, H_S, H_R) values — connection
// ids name decisions but cannot change them — so hashing exactly those
// inputs keys a verdict cache that is correct by construction: a hit means
// re-running the full analysis would reproduce the cached floats bit for
// bit.
//
// The state hash is a commutative multiset hash (a wrapping sum of strongly
// mixed per-connection fingerprints, on two independent lanes for 128 bits
// of discrimination): nextSnap sums it afresh over the admitted set of every
// snapshot it builds, and the sum does not depend on the order of the set.

// fingerprint is a 128-bit hash carried as two independently mixed 64-bit
// lanes. Two fingerprints are meant to collide only for genuinely identical
// inputs; the second lane exists so a single-lane collision cannot alias two
// different admitted states.
type fingerprint struct{ a, b uint64 }

// mix64 is the SplitMix64 finalizer: a fast full-avalanche mix used to both
// scramble individual words and to advance the combination state between
// words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hasher accumulates words into a fingerprint. Word order matters (it is a
// sequence hash, not a multiset hash): callers feed fields in a fixed order.
type hasher struct{ f fingerprint }

// lane seeds keep the two lanes independent: identical word sequences mix
// through different constants.
const (
	hashSeedA = 0x9e3779b97f4a7c15
	hashSeedB = 0xd1b54a32d192ed03
)

func newHasher() hasher {
	return hasher{f: fingerprint{a: hashSeedA, b: hashSeedB}}
}

// word absorbs one 64-bit word into both lanes.
func (h *hasher) word(w uint64) {
	h.f.a = mix64(h.f.a ^ w)
	h.f.b = mix64(h.f.b + w + hashSeedB)
}

// float absorbs one float64 by exact bit pattern. Negative zero and NaN
// payloads are absorbed as-is: the engine never produces them in
// specifications, and treating them distinctly errs toward cache misses,
// never wrong hits.
func (h *hasher) float(v float64) { h.word(math.Float64bits(v)) }

// Descriptor type tags. Each fingerprintable descriptor gets a distinct tag
// so (CBR 5e6) can never alias (LeakyBucket σ=5e6 ...).
const (
	tagCBR = iota + 1
	tagPeriodic
	tagDualPeriodic
	tagLeakyBucket
)

// descriptorWords absorbs a traffic descriptor's exact parameters, reporting
// false for dynamic types it does not know (wrapped or user-defined
// envelopes). Unknown descriptors simply opt the connection out of verdict
// caching — correctness is unaffected, the probe just always runs.
func descriptorWords(h *hasher, d traffic.Descriptor) bool {
	switch s := d.(type) {
	case traffic.CBR:
		h.word(tagCBR)
		h.float(s.RateBps)
	case traffic.Periodic:
		h.word(tagPeriodic)
		h.float(s.C)
		h.float(s.P)
		h.float(s.PeakBps)
	case traffic.DualPeriodic:
		h.word(tagDualPeriodic)
		h.float(s.C1)
		h.float(s.P1)
		h.float(s.C2)
		h.float(s.P2)
		h.float(s.PeakBps)
	case traffic.LeakyBucket:
		h.word(tagLeakyBucket)
		h.float(s.Sigma)
		h.float(s.Rho)
		h.float(s.PeakBps)
	default:
		return false
	}
	return true
}

// specFingerprint hashes everything about a candidate specification that the
// verdict mathematically depends on: endpoints (which determine the route),
// deadline, buffer bounds, shaper parameters, and the source descriptor's
// exact parameters. The connection id is deliberately excluded — a churn
// workload mints a fresh id per request, and including it would make every
// decision problem look unprecedented. ok is false when the descriptor is
// not fingerprintable.
func specFingerprint(s ConnSpec) (fp fingerprint, ok bool) {
	h := newHasher()
	h.word(uint64(int64(s.Src.Ring)))
	h.word(uint64(int64(s.Src.Index)))
	h.word(uint64(int64(s.Dst.Ring)))
	h.word(uint64(int64(s.Dst.Index)))
	h.float(s.Deadline)
	h.float(s.HostBufferBits)
	h.float(s.IDBufferBits)
	if s.Shape != nil {
		h.word(1)
		h.float(s.Shape.SigmaBits)
		h.float(s.Shape.RhoBps)
	} else {
		h.word(0)
	}
	if !descriptorWords(&h, s.Source) {
		return fingerprint{}, false
	}
	return h.f, true
}

// connFingerprint hashes one admitted connection's contribution to the state
// hash: its specification fingerprint plus the exact committed allocations.
// ok is false when the spec is not fingerprintable, which marks the whole
// state unhashable until that connection is released.
func connFingerprint(c *Connection) (fp fingerprint, ok bool) {
	sf, ok := specFingerprint(c.ConnSpec)
	if !ok {
		return fingerprint{}, false
	}
	h := newHasher()
	h.word(sf.a)
	h.word(sf.b)
	h.float(c.HS)
	h.float(c.HR)
	return h.f, true
}

// stateHash is the commutative multiset hash of an admitted set: the
// wrapping sum of member connection fingerprints.
type stateHash struct{ a, b uint64 }

func (s *stateHash) add(f fingerprint) { s.a += f.a; s.b += f.b }

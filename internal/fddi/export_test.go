package fddi

import (
	"math"

	"fafnet/internal/traffic"
)

// scanMAC runs Theorem 1's searches (macScan.scan) over a busy interval the
// caller has found, and returns F (NaN unless backlog), χ and the envelope
// evaluations spent.
func scanMAC(in traffic.Descriptor, p MACParams, busy float64, backlog bool) (backlogBits, delay float64, evals int) {
	s := newMACScan(in, p)
	s.busy, s.nextRot = busy, 0
	backlogBits = s.scan(backlog)
	return backlogBits, s.delay, s.evals
}

// busyEnd runs the Eq. 9 scan over in at p to its end, as AnalyzeMAC does,
// and returns B, the envelope evaluations spent and whether the busy
// interval ends within maxBusyRotations.
func busyEnd(in traffic.Descriptor, p MACParams) (busy float64, evals int, ok bool) {
	s := newMACScan(in, p)
	ok = s.finish()
	return s.busy, s.evals, ok
}

// scanFromRotationOne is AnalyzeMAC's scan with the Eq. 9 scan started at
// rotation 1 instead of the rate floor's first rotation: B, F and χ, and
// whether the busy interval ends within maxBusyRotations.
func scanFromRotationOne(in traffic.Descriptor, p MACParams) (busy, backlogBits, delay float64, ok bool) {
	s := newMACScan(in, p)
	s.nextRot = 1
	if !s.finish() {
		return s.busy, math.NaN(), s.delay, false
	}
	backlogBits = s.scan(true)
	return s.busy, backlogBits, s.delay, true
}

// scanStart returns the rotation newMACScan starts the Eq. 9 scan at.
func scanStart(in traffic.Descriptor, p MACParams) int { return newMACScan(in, p).nextRot }

package fddi

import "fafnet/internal/traffic"

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

package fddi

import "fafnet/internal/traffic"

// scanMAC runs Theorem 1's searches (macScan.scan) over a busy interval the
// caller has found, and returns F (NaN unless backlog), χ and the envelope
// evaluations spent.
func scanMAC(in traffic.Descriptor, p MACParams, busy float64, backlog bool) (backlogBits, delay float64, evals int) {
	s := newMACScan(in, p)
	s.busy = busy
	backlogBits = s.scan(backlog)
	return backlogBits, s.delay, s.evals
}

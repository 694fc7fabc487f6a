package core

import "fafnet/internal/traffic"

// fold is foldAt for a test that holds the connection rather than its index
// in the evaluation.
func (ev *evaluation) fold(c *Connection, to int, bd *Breakdown, limit float64, n need) (traffic.Envelope, cutoff, error) {
	i, ok := ev.lookup(c.ID)
	if !ok || ev.ordered[i] != c {
		panic("core: fold of a connection outside the evaluation")
	}
	return ev.foldAt(i, to, bd, limit, n)
}

// Package atomics exercises randsrc's module-wide ban: the function-style
// sync/atomic API is flagged, methods on typed atomics stay silent.
package atomics

import "sync/atomic"

type counter struct {
	plain uint64
	typed atomic.Uint64
}

func bump(c *counter) uint64 {
	atomic.AddUint64(&c.plain, 1) // want `function-style atomic.AddUint64 leaves its operand a plain variable`
	c.typed.Add(1)                // a typed atomic has no plain access to mix in
	return c.plain + c.typed.Load()
}

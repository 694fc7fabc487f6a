// Package b is the downstream half of the cross-package facts test: it calls
// into package a under its own lock and touches a's guarded field, which
// the locks analyzer must flag using only a's exported facts.
package b

import (
	"sync"

	a "fafnet/internal/afake"
)

var mu sync.Mutex

// UnderLock calls into package a with the local lock held: Grab nests a's
// lock inside mu (the shape of a metrics helper that registers into a
// locked registry), Park blocks under the lock.
func UnderLock() {
	mu.Lock()
	a.Grab()
	a.Park()
	mu.Unlock()
}

// Reenter re-acquires a.M through Grab while already holding it directly.
func Reenter() {
	a.M.Lock()
	a.Grab()
	a.M.Unlock()
}

// Rows reads a's guarded field without a's lock.
func Rows(t *a.Table) int {
	return len(t.Rows)
}

// RowsLocked reads it under the lock.
func RowsLocked(t *a.Table) int {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	return len(t.Rows)
}

// Package a is the upstream half of the cross-package facts test: it owns
// locks and guarded state, and exports functions whose locking and blocking
// downstream packages can only learn through the locks facts.
package a

import "sync"

// M is the package lock.
var M sync.Mutex

// Grab takes and releases the package lock.
func Grab() {
	M.Lock()
	M.Unlock()
}

// Park blocks on a WaitGroup.
func Park() {
	var wg sync.WaitGroup
	wg.Wait()
}

// Box owns a field lock. Alias names the same struct and sorts before Box in
// the package scope; the method's fact must still be keyed by Box.
type Box struct{ mu sync.Mutex }

// Alias is a second name for Box.
type Alias = Box

// Touch takes and releases the box's lock.
func (b *Box) Touch() {
	b.mu.Lock()
	b.mu.Unlock()
}

// Table is shared state with an exported guard.
type Table struct {
	Mu sync.Mutex
	// Rows is the live row set. guarded by Mu.
	Rows map[string]int
}

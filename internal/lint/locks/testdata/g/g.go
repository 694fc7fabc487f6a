// Package g exercises the guarded-state half of the locks analyzer:
// annotated fields, package variables and locals, the call-site held-set
// inference, goroutines, closures and construction exemptions.
package g

import "sync"

// Registry models the obs registry shape: a map guarded by its sibling mu.
type Registry struct {
	mu sync.Mutex
	// fams is the family table. guarded by mu.
	fams map[string]int
	// hits counts lookups. guarded by mu.
	hits int
	// name is unannotated: free to touch.
	name string
}

// NewRegistry builds the value in a composite literal — construction is
// exempt, nothing else can see the value yet.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]int)}
}

// Get is the sanctioned access shape.
func (r *Registry) Get(k string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits++
	return r.fams[k]
}

// Bad touches the table without the lock.
func (r *Registry) Bad(k string) int {
	return r.fams[k] // want `r\.fams accessed without holding mu`
}

// BadWrite drops the lock too early.
func (r *Registry) BadWrite(k string, v int) {
	r.mu.Lock()
	r.mu.Unlock()
	r.fams[k] = v // want `r\.fams accessed without holding mu`
}

// sizeLocked is only ever called with mu held; the call-site inference must
// discover that and accept the unlocked-looking access below.
func (r *Registry) sizeLocked() int {
	return len(r.fams)
}

// Size locks, then reaches the field through the helper.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sizeLocked()
}

// Snapshot copies under the lock inside a deferred closure (walked with the
// held set at the defer statement).
func (r *Registry) Snapshot() (out map[string]int) {
	r.mu.Lock()
	defer func() {
		out = make(map[string]int, len(r.fams))
		for k, v := range r.fams {
			out[k] = v
		}
		r.mu.Unlock()
	}()
	return nil
}

// Spawn shows a goroutine body starts with an empty held set even when the
// spawner holds the lock.
func (r *Registry) Spawn() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		r.hits++ // want `r\.hits accessed without holding mu`
	}()
	go func() {
		r.mu.Lock()
		r.hits++ // locked inside the goroutine: fine
		r.mu.Unlock()
	}()
}

// Stored closures run under unknown locks; accesses inside them must lock.
func (r *Registry) Hook() func() {
	r.mu.Lock()
	defer r.mu.Unlock()
	return func() {
		r.hits++ // want `r\.hits accessed without holding mu`
	}
}

// pkgMu guards the package-level counter below.
var pkgMu sync.Mutex

// total is the process-wide count. guarded by pkgMu.
var total int

func Bump() {
	pkgMu.Lock()
	total++
	pkgMu.Unlock()
}

func BadBump() {
	total++ // want `total accessed without holding pkgMu`
}

// Locals follows the sim sweep shape: a worker-pool error slot guarded by a
// local mutex.
func Locals(n int) error {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		// first records the first worker error. guarded by mu.
		first error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			if first == nil {
				first = nil
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return first
}

func BadLocals() error {
	var mu sync.Mutex
	// first is the error slot. guarded by mu.
	var first error
	_ = mu
	return first // want `first accessed without holding mu`
}

// badAnnotation names a guard that does not exist.
type badAnnotation struct {
	// n is broken. guarded by missing.
	n int // want `guarded-by annotation on n names "missing"`
}

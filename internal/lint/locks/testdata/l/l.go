// Package l exercises the lock rule of the locks analyzer: nested
// acquisitions (an opposite-order pair is two of them), re-entrant locking,
// and blocking operations under a held mutex.
package l

import (
	"sync"
	"time"
)

// Server models the signaling server's shutdown hazard: Close holding mu
// across wg.Wait deadlocks if an in-flight handler needs mu to finish.
type Server struct {
	mu sync.Mutex
	wg sync.WaitGroup
	n  int
}

func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `WaitGroup\.Wait while s\.mu is held`
}

// CloseOK releases the lock before waiting — the sanctioned shape.
func (s *Server) CloseOK() {
	s.mu.Lock()
	s.n = 0
	s.mu.Unlock()
	s.wg.Wait()
}

type pair struct {
	a, b sync.Mutex
	ch   chan int
}

func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want `p\.b acquired while p\.a is held; locks are leaves`
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock() // want `p\.a acquired while p\.b is held; locks are leaves`
	p.a.Unlock()
	p.b.Unlock()
}

func (p *pair) recurse() {
	p.a.Lock()
	p.a.Lock() // want `p\.a acquired while p\.a is already held`
	p.a.Unlock()
	p.a.Unlock()
}

func (p *pair) sendHeld() {
	p.a.Lock()
	p.ch <- 1 // want `channel send while p\.a is held`
	p.a.Unlock()
}

func (p *pair) recvHeld() {
	p.a.Lock()
	<-p.ch // want `channel receive while p\.a is held`
	p.a.Unlock()
}

func (p *pair) selectHeld() {
	p.a.Lock()
	select { // want `select while p\.a is held`
	case <-p.ch:
	case p.ch <- 1:
	}
	p.a.Unlock()
}

// trySend is fine: a select with a default clause never parks.
func (p *pair) trySend(v int) bool {
	p.a.Lock()
	defer p.a.Unlock()
	select {
	case p.ch <- v:
		return true
	default:
		return false
	}
}

func (p *pair) sleepDirect() {
	p.a.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while p\.a is held`
	p.a.Unlock()
}

// helperLockB is only ever called with p.a held. The inferred held set
// makes its own acquisition of b a finding, which a walk from an empty set
// does not see.
func helperLockB(p *pair) {
	p.b.Lock() // want `p\.b acquired while p\.a is held`
	p.b.Unlock()
}

// viaCall nests b inside a through a callee summary.
func viaCall(p *pair) {
	p.a.Lock()
	helperLockB(p) // want `call to helperLockB acquires b while p\.a is held`
	p.a.Unlock()
}

// helperLockA and sleeper, likewise, are only called with p.a held.
func helperLockA(p *pair) {
	p.a.Lock() // want `p\.a acquired while p\.a is already held`
	p.a.Unlock()
}

func reenter(p *pair) {
	p.a.Lock()
	helperLockA(p) // want `call to helperLockA \(re\)acquires p\.a, which is already held`
	p.a.Unlock()
}

func sleeper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep while p\.a is held`
}

func sleepHeld(p *pair) {
	p.a.Lock()
	sleeper() // want `call to sleeper may block while p\.a is held`
	p.a.Unlock()
}

// branches releases on every path before the receive; the held sets merge
// by intersection, so nothing is reported.
func branches(p *pair, cond bool) {
	p.a.Lock()
	if cond {
		p.a.Unlock()
		return
	}
	p.a.Unlock()
	<-p.ch
}

// spawn's goroutine runs on its own stack with nothing held.
func spawn(p *pair) {
	p.a.Lock()
	go func() {
		<-p.ch
	}()
	p.a.Unlock()
}

// badCloser is the shutdown hazard of a server: Close holds mu across
// wg.Wait, so a worker that needs mu to finish can never let Wait return.
// The analyzer must catch it without a waiver.
type badCloser struct {
	mu sync.Mutex
	wg sync.WaitGroup
	n  int
}

func (b *badCloser) finishWorker() {
	defer b.wg.Done()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *badCloser) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wg.Wait() // want `WaitGroup\.Wait while b\.mu is held`
}

type cache struct {
	rw sync.RWMutex
	m  map[string]int
}

// get uses a deferred RUnlock over pure map reads — clean.
func (c *cache) get(k string) int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.m[k]
}

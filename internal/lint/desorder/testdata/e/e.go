// Package e exercises the desorder analyzer: event-handler callbacks must
// not spawn goroutines, touch channels, sleep, or write package globals.
package e

import "time"

// sched mimics the des.Simulator scheduling surface.
type sched struct{ now float64 }

func (s *sched) Schedule(t float64, fire func()) error { fire(); _ = t; return nil }
func (s *sched) After(d float64, fire func()) error    { fire(); _ = d; return nil }

var totalFired int // package-level state a handler must not touch

var results = make(chan int, 1)

func badLiteral(s *sched) {
	_ = s.Schedule(1, func() {
		go drain()              // want `goroutine spawned inside a DES event handler`
		results <- 1            // want `channel send inside a DES event handler`
		<-results               // want `channel receive inside a DES event handler`
		time.Sleep(time.Second) // want `time.Sleep inside a DES event handler`
		totalFired++            // want `write to package-level variable totalFired`
	})
}

func badSelect(s *sched) {
	_ = s.After(1, func() {
		select { // want `select inside a DES event handler`
		case <-results: // the receive below the select keyword is part of it
		default:
		}
	})
}

func badClosureVar(s *sched) {
	var tick func()
	tick = func() {
		totalFired = 3 // want `write to package-level variable totalFired`
		_ = s.After(1, tick)
	}
	_ = s.Schedule(0, tick)
}

// port mimics a simulator stage whose handlers are bound to func-typed
// fields once, at construction, and scheduled by field.
type port struct {
	s      *sched
	out    chan int
	txDone func()
	arrive func()
}

func newPort(s *sched) *port {
	p := &port{s: s, out: make(chan int, 1)}
	p.txDone = p.endTx
	p.arrive = func() {
		for range results { // want `range over a channel inside a DES event handler`
		}
	}
	return p
}

func (p *port) endTx() {
	p.out <- 1                  // want `channel send inside a DES event handler`
	_ = time.After(time.Second) // want `time.After inside a DES event handler`
}

func (p *port) start() {
	_ = p.s.Schedule(1, p.txDone)
	_ = p.s.After(1, p.arrive)
}

// relay binds its handler in a composite literal.
type relay struct {
	s    *sched
	fire func()
}

func startRelay(s *sched) {
	r := &relay{s: s, fire: func() {
		totalFired = 1 // want `write to package-level variable totalFired`
	}}
	_ = r.s.Schedule(0, r.fire)
}

// idle has a func-typed field that is never scheduled: its method is not a
// handler.
type idle struct{ hook func() }

func newIdle() *idle {
	i := &idle{}
	i.hook = i.notify
	return i
}

func (i *idle) notify() { results <- 2 }

func drain() {}

// goodHandler mutates only captured locals and schedules follow-up events —
// the sanctioned shape.
func goodHandler(s *sched) float64 {
	var acc float64
	var next func()
	next = func() {
		acc += s.now
		_ = s.After(1, next)
	}
	_ = s.Schedule(0, next)
	return acc
}

// goodOutside uses channels outside any handler (a parallel sweep harness is
// legitimate); only handler bodies are constrained.
func goodOutside() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
	totalFired++
}

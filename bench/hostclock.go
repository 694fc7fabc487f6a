package main

import (
	"slices"
	"time"
)

// The sandbox this benchmark is judged in is a few cores of a shared host,
// and its speed moves by a quarter for minutes at a time: two sets of runs of
// one binary read churn at 198 and 141 decisions/s (bench/README.md). No
// statistic taken inside a run steadies that; a second measurement beside
// the first one does. So every end-to-end time is read on a calibrated
// clock: between slices of the workload the run times a fixed reference
// kernel, bench-owned code that no change to the program can touch, and
// every duration is scaled by how fast the kernel ran beside it against
// refNominal. A reported second is a second of the nominal machine; on a
// host running at 0.8 of it, 1.25 wall seconds.

// refKernel is the fixed work: about a third each of float arithmetic over
// slices (the shape of the envelope kernels), a branchy sort, and dependent
// loads through a table that does not fit the second-level cache, so that it
// slows with what slows the program — clock rate, a busy sibling thread, a
// contended shared cache — and not with one of them only. Over 45 minutes of
// this sandbox's own ups and downs each part alone tracked the workloads
// worse than the three together (bench/README.md). It allocates nothing
// after it is built, so allocs_per_op does not see it.
type refKernel struct {
	seg   []float64
	keys  []float64
	chase []uint32
	pos   uint32
	lcg   uint64
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{seg: make([]float64, 2048), keys: make([]float64, 1024), chase: make([]uint32, 1<<22), lcg: 1}
	for i := range k.seg {
		k.seg[i] = float64(k.next()%1000) / 7
	}
	// Sattolo's shuffle: one cycle through the whole table.
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	for i := len(k.chase) - 1; i > 0; i-- {
		j := int(k.next() % uint64(i))
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	return k
}

func (k *refKernel) next() uint64 {
	k.lcg = k.lcg*6364136223846793005 + 1442695040888963407
	return k.lcg >> 33
}

// run does one unit of the fixed work.
func (k *refKernel) run() {
	var s float64
	for t := 1; t <= 48; t++ {
		x := float64(t) * 0.37
		m := 1e300
		for i := 0; i+1 < len(k.seg); i += 2 {
			if v := k.seg[i] + k.seg[i+1]*x; v < m {
				m = v
			}
		}
		s += m
	}
	for i := range k.keys {
		k.keys[i] = float64(k.next())
	}
	slices.Sort(k.keys)
	p := k.pos
	for i := 0; i < 384; i++ {
		p = k.chase[p]
	}
	k.pos = p
	k.sink += s + k.keys[len(k.keys)/2]
}

const (
	// refNominal is what one refKernel.run takes on the nominal machine: the
	// builder's sandbox on a quiet afternoon. It only fixes the scale.
	refNominal = 175 * time.Microsecond
	// refSample is how long one reading of the kernel lasts, and refEvery how
	// much of the workload a closed loop runs between two readings: the kernel
	// has a twentieth of the window.
	refSample = 5 * time.Millisecond
	refEvery  = 100 * time.Millisecond
	// refPad widens the interval whose readings calibrate a slice: the host's
	// speed moves over seconds, and five readings are steadier than two.
	refPad = 250 * time.Millisecond
)

// hostClock holds a run's readings of the reference kernel.
type hostClock struct {
	k     *refKernel
	at    []time.Time // when each reading ended
	speed []float64   // nominal time ÷ measured time: 1 on the nominal machine
	// spent is the time the readings themselves have taken, for whoever
	// times an interval that has readings inside it.
	spent time.Duration
}

func newHostClock() *hostClock { return &hostClock{k: newRefKernel()} }

// sample takes one reading. The first unit of work is not timed: it refills
// the near caches with the kernel's own data, whatever the program left there.
func (c *hostClock) sample() {
	began := time.Now()
	c.k.run()
	t0 := time.Now()
	n := 0
	var elapsed time.Duration
	for elapsed < refSample {
		c.k.run()
		n++
		elapsed = time.Since(t0)
	}
	c.at = append(c.at, t0.Add(elapsed))
	c.speed = append(c.speed, float64(n)*refNominal.Seconds()/elapsed.Seconds())
	c.spent += time.Since(began)
}

// speedOver is the host's speed over [t0, t1]: the mean of the readings
// within refPad of the interval, or the nearest reading when there is none.
func (c *hostClock) speedOver(t0, t1 time.Time) float64 {
	lo, hi := t0.Add(-refPad), t1.Add(refPad)
	var sum float64
	var n int
	nearest, gap := 1.0, time.Duration(1<<62)
	for i, at := range c.at {
		if !at.Before(lo) && !at.After(hi) {
			sum += c.speed[i]
			n++
		}
		if d := max(t0.Sub(at), at.Sub(t1)); d < gap {
			nearest, gap = c.speed[i], d
		}
	}
	if n == 0 {
		return nearest
	}
	return sum / float64(n)
}

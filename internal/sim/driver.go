package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"fafnet/internal/core"
	"fafnet/internal/des"
	"fafnet/internal/stats"
	"fafnet/internal/topo"
	"fafnet/internal/workload"
)

// feed is the arrival stream of one run. The driver asks it three things, in
// the order a run needs them, and that order is the draw-order contract a
// feed's random streams are pinned by: next when the previous arrival has
// been handled (before the run for the first), request when the arrival
// fires, lifetime only if the request was admitted.
type feed struct {
	// next returns the time of the next arrival, no earlier than now; false
	// ends the run (a replayed trace has been issued in full).
	next func(now float64) (at float64, ok bool)
	// request names the connection the arrival due now asks for. A feed that
	// places its requests itself draws the endpoints with driver.pick and
	// reports ok false when no host is idle: the arrival is dropped, not
	// queued.
	request func() (a arrival, ok bool, err error)
	// lifetime returns the holding time of the request just admitted.
	lifetime func() float64
}

// arrival is one admission request as a feed hands it over.
type arrival struct {
	spec  core.ConnSpec
	class string
	// event is the request in trace form (RunMulti's feeds; zero for Run).
	event workload.Event
}

// tally is the admission statistics of one class of requests.
type tally struct {
	ap         stats.Ratio
	slack      stats.Sample
	rejections map[string]int
}

// record counts one decision: the verdict and, for an admit, the gap between
// the deadline and the worst-case delay at admission; for a reject, why.
func (t *tally) record(spec core.ConnSpec, dec core.Decision) {
	t.ap.Record(dec.Admitted)
	if dec.Admitted {
		t.slack.Add(spec.Deadline - dec.Delays[spec.ID])
	} else {
		t.rejections[dec.Reason]++
	}
}

// driver is the Section 6 loop both Run and RunMulti are feeds of: arrivals
// fire one at a time on a des.Simulator, each is put to the admission
// controller, an admitted connection departs after its holding time, and the
// run halts once budget requests past the warm-up have been counted or the
// feed ends.
type driver struct {
	ctl    *core.Controller
	sim    *des.Simulator
	rng    *des.RNG // endpoint selection
	hosts  []topo.HostID
	warmup int
	budget int
	// issued observes every request after its decision; counted marks the
	// ones past the warm-up, activeBefore is the admitted count it met.
	issued func(a arrival, dec core.Decision, activeBefore int, counted bool)

	// idle and remote are the host-selection scratch, reused per arrival.
	idle, remote []topo.HostID

	total, counted, skipped int
	// fp hashes the decision stream: id, arrival time, verdict, allocations.
	fp    hash.Hash64
	fpBuf []byte
	// The time integral of the active-connection count.
	active         int
	activeSince    float64
	activeIntegral float64
}

func newDriver(topology topo.Config, cac core.Options, rng *des.RNG) (*driver, error) {
	net, err := topo.NewNetwork(topology)
	if err != nil {
		return nil, err
	}
	// Every simulated connection is addressed to a host on another ring.
	if topology.NumRings < 2 {
		return nil, errors.New("sim: runs need at least two rings (routes cross the backbone)")
	}
	ctl, err := core.NewController(net, cac)
	if err != nil {
		return nil, err
	}
	hosts := net.Hosts()
	return &driver{
		ctl: ctl, sim: des.NewSimulator(), rng: rng, hosts: hosts, budget: math.MaxInt,
		idle: make([]topo.HostID, 0, len(hosts)), remote: make([]topo.HostID, 0, len(hosts)),
		fp: fnv.New64a(),
	}, nil
}

// pick draws the endpoints of a request: the source uniformly among hosts not
// currently originating a connection (ok false when there is none), the
// destination uniformly among hosts on other rings — the route always crosses
// the backbone — or, with probability bias for a source off ring 0, among
// those of the hot ring 0 only. A zero bias draws nothing for it.
func (d *driver) pick(bias float64) (src, dst topo.HostID, ok bool) {
	d.idle = d.idle[:0]
	for _, h := range d.hosts {
		if !d.ctl.SourceBusy(h) {
			d.idle = append(d.idle, h)
		}
	}
	if len(d.idle) == 0 {
		return src, dst, false
	}
	src = d.idle[d.rng.Intn(len(d.idle))]
	hotOnly := bias > 0 && src.Ring != 0 && d.rng.Float64() < bias
	d.remote = d.remote[:0]
	for _, h := range d.hosts {
		if h.Ring != src.Ring && (!hotOnly || h.Ring == 0) {
			d.remote = append(d.remote, h)
		}
	}
	return src, d.remote[d.rng.Intn(len(d.remote))], true
}

// noteActive closes the active-count integral up to now and applies delta.
func (d *driver) noteActive(now float64, delta int) {
	d.activeIntegral += float64(d.active) * (now - d.activeSince)
	d.activeSince = now
	d.active += delta
}

// arrive handles the arrival due now: the request, its decision, the
// bookkeeping, and the departure of an admitted connection.
func (d *driver) arrive(f feed) error {
	now := d.sim.Now()
	a, ok, err := f.request()
	if err != nil {
		return err
	}
	if !ok {
		d.skipped++
		return nil
	}
	activeBefore := d.ctl.Active()
	dec, err := d.ctl.RequestAdmission(a.spec)
	if err != nil {
		return fmt.Errorf("sim: admission request %s: %w", a.spec.ID, err)
	}

	var verdict uint64
	if dec.Admitted {
		verdict = 1
	}
	d.fpBuf = append(d.fpBuf[:0], a.spec.ID...)
	for _, v := range [...]uint64{math.Float64bits(now), verdict, math.Float64bits(dec.HS), math.Float64bits(dec.HR)} {
		d.fpBuf = binary.BigEndian.AppendUint64(d.fpBuf, v)
	}
	d.fp.Write(d.fpBuf)

	d.total++
	counted := d.total > d.warmup
	if counted {
		d.counted++
	}
	d.issued(a, dec, activeBefore, counted)
	if !dec.Admitted {
		return nil
	}
	d.noteActive(now, +1)
	id := a.spec.ID
	if _, err := d.sim.Schedule(now+f.lifetime(), func() {
		d.noteActive(d.sim.Now(), -1)
		if !d.ctl.Release(id) {
			// Exactly one departure is scheduled per admission, so a miss
			// here is a corrupted simulation, not a data point.
			panic("sim: departure event for unknown connection " + id)
		}
	}); err != nil {
		return fmt.Errorf("sim: scheduling departure: %w", err)
	}
	return nil
}

// run drives the feed to its end or to the request budget and returns the
// simulated time span and the time-averaged number of active connections.
// Halting inside the last arrival's handler leaves that arrival's departure,
// and every earlier one still due, pending: the admitted set at the end of a
// replay is the recording run's.
func (d *driver) run(f feed) (duration, meanActive float64, err error) {
	var loopErr error
	var schedule func()
	schedule = func() {
		at, ok := f.next(d.sim.Now())
		if !ok {
			d.sim.Halt()
			return
		}
		if _, err := d.sim.Schedule(at, func() {
			if loopErr = d.arrive(f); loopErr != nil || d.counted >= d.budget {
				d.sim.Halt()
				return
			}
			schedule()
		}); err != nil {
			loopErr = err
			d.sim.Halt()
		}
	}
	schedule()
	d.sim.Run(math.Inf(1))
	if loopErr != nil {
		return 0, 0, loopErr
	}
	if d.budget < math.MaxInt && d.counted < d.budget {
		return 0, 0, errors.New("sim: simulation ended before reaching the request budget")
	}
	duration = d.sim.Now()
	d.noteActive(duration, 0)
	if duration > 0 {
		meanActive = d.activeIntegral / duration
	}
	return duration, meanActive, nil
}

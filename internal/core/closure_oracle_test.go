package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fafnet/internal/atm"
	"fafnet/internal/fddi"
	"fafnet/internal/ifdev"
	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// closureDelays is the reference the analyzer is held against: Eq. 7 read off
// the paper onto the raw closure tree. Every envelope is the nested transform
// the server analyses hand back — no Fuse, no Flat, no Analyzer — every
// server is analysed again each time something asks for it, and the only
// thing kept is the worst-case delay of each shared port, for the duration of
// one call. It shares with the code under test the stand-alone server
// analyses alone, which have oracles of their own.
//
// Connections without a finite bound map to +Inf, as in Analyzer.Delays.
func closureDelays(net *topo.Network, conns []*Connection) (map[string]float64, error) {
	o := &closureOracle{net: net, conns: append([]*Connection(nil), conns...), portDelay: make(map[topo.PortID]float64)}
	// A port's members are summed in id order.
	sort.Slice(o.conns, func(i, j int) bool { return o.conns[i].ID < o.conns[j].ID })
	out := make(map[string]float64, len(conns))
	for _, c := range o.conns {
		d, err := o.total(c)
		switch {
		case errors.Is(err, errNoBound):
			d = math.Inf(1)
		case err != nil:
			return nil, err
		}
		out[c.ID] = d
	}
	return out, nil
}

// errNoBound marks a server without a finite worst-case delay.
var errNoBound = errors.New("closure oracle: no finite bound")

type closureOracle struct {
	net       *topo.Network
	conns     []*Connection
	portDelay map[topo.PortID]float64 // +Inf: analysed, no finite bound
}

// sender analyses the servers ahead of the frame→cell conversion — the
// sender-host MAC (Theorem 1) and the ingress regulator of a shaped
// connection — and returns the envelope leaving them with their delays.
func (o *closureOracle) sender(c *Connection) (traffic.Descriptor, float64, error) {
	ring := o.net.RingConfig(c.Src.Ring)
	mac, err := fddi.AnalyzeMAC(c.Source, fddi.MACParams{Ring: ring, H: c.HS, BufferBits: c.HostBufferBits}, fddi.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: sender MAC of %q: %v", errNoBound, c.ID, err)
	}
	if c.Shape == nil || !c.Route.CrossesBackbone {
		return mac.Output, mac.Delay, nil
	}
	// A frame larger than the bucket never conforms.
	if c.Shape.SigmaBits < ring.FrameBits(c.HS) {
		return nil, 0, fmt.Errorf("%w: shaper of %q: bucket below frame size", errNoBound, c.ID)
	}
	sh, err := shaper.Analyze(mac.Output, *c.Shape)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: shaper of %q: %v", errNoBound, c.ID, err)
	}
	return sh.Output, mac.Delay + sh.Delay, nil
}

// entering returns c's envelope at the entrance of the stage-th port of its
// route: the sender-side envelope through the frame→cell conversion
// (Theorem 2), then one Delayed per port already crossed.
func (o *closureOracle) entering(c *Connection, stage int) (traffic.Descriptor, error) {
	if stage == 0 {
		pre, _, err := o.sender(c)
		if err != nil {
			return nil, err
		}
		return ifdev.SenderConversion(pre, o.net.RingConfig(c.Src.Ring).FrameBits(c.HS), o.net.Config().ID)
	}
	prev, err := o.entering(c, stage-1)
	if err != nil {
		return nil, err
	}
	d, err := o.port(c.Route.Ports[stage-1])
	if err != nil {
		return nil, err
	}
	return traffic.NewDelayed(prev, d, o.net.PortCapacity())
}

// port analyses one shared FIFO port against the envelopes of every
// connection crossing it.
func (o *closureOracle) port(p topo.PortID) (float64, error) {
	if d, ok := o.portDelay[p]; ok {
		if math.IsInf(d, 1) {
			return 0, fmt.Errorf("%w: port %v", errNoBound, p)
		}
		return d, nil
	}
	var inputs []traffic.Descriptor
	for _, m := range o.conns {
		for stage, q := range m.Route.Ports {
			if q != p {
				continue
			}
			env, err := o.entering(m, stage)
			if errors.Is(err, errNoBound) {
				// An unbounded member floods the port.
				o.portDelay[p] = math.Inf(1)
			}
			if err != nil {
				return 0, err
			}
			inputs = append(inputs, env)
			break
		}
	}
	res, err := atm.AnalyzeMux(inputs, atm.MuxParams{CapacityBps: o.net.PortCapacity()}, atm.MuxOptions{})
	switch {
	case errors.Is(err, atm.ErrMuxOverload), errors.Is(err, atm.ErrMuxNoConvergence), errors.Is(err, atm.ErrMuxBufferOverflow):
		o.portDelay[p] = math.Inf(1)
		return 0, fmt.Errorf("%w: port %v: %v", errNoBound, p, err)
	case err != nil:
		return 0, err
	}
	o.portDelay[p] = res.Delay
	return res.Delay, nil
}

// total is Eq. 7: the sum of the worst-case delays of every server on c's
// path, in path order.
func (o *closureOracle) total(c *Connection) (float64, error) {
	_, total, err := o.sender(c)
	if err != nil {
		return 0, err
	}
	total += c.Route.ConstantDelay
	if !c.Route.CrossesBackbone {
		return total, nil
	}
	for _, p := range c.Route.Ports {
		d, err := o.port(p)
		if err != nil {
			return 0, err
		}
		total += d
	}
	env, err := o.entering(c, len(c.Route.Ports))
	if err != nil {
		return 0, err
	}
	ring := o.net.RingConfig(c.Dst.Ring)
	reassembled, err := ifdev.ReceiverConversion(env, ring.FrameBits(c.HR), o.net.Config().ID)
	if err != nil {
		return 0, err
	}
	dst, err := fddi.AnalyzeMAC(reassembled, fddi.MACParams{Ring: ring, H: c.HR, BufferBits: c.IDBufferBits}, fddi.Options{})
	if err != nil {
		return 0, fmt.Errorf("%w: receiver MAC of %q: %v", errNoBound, c.ID, err)
	}
	return total + dst.Delay, nil
}

package core

import (
	"fmt"
	"sort"
	"testing"

	"fafnet/internal/fddi"
	"fafnet/internal/topo"
)

// serialOracle is the serialized admission controller the pipeline is held
// against: an admitted map, one fddi.Ring per segment charged in place,
// decideAgainst on its own Analyzer, and a transactional commit. It is the
// slow-but-obvious reading of Section 5.3 — no snapshots, no verdict cache,
// no reservations, no reports — kept test-side as the reference.
type serialOracle struct {
	net      *topo.Network
	analyzer *Analyzer
	opts     Options
	conns    map[string]*Connection
	rings    []*fddi.Ring
}

func newSerialOracle(t testing.TB, net *topo.Network, opts Options) *serialOracle {
	t.Helper()
	an, err := NewAnalyzer(net, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := &serialOracle{net: net, analyzer: an, opts: opts.withDefaults(), conns: make(map[string]*Connection)}
	for i := 0; i < net.NumRings(); i++ {
		r, err := fddi.NewRing(net.RingConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		o.rings = append(o.rings, r)
	}
	return o
}

// connections returns the admitted set sorted by id.
func (o *serialOracle) connections() []*Connection {
	out := make([]*Connection, 0, len(o.conns))
	for _, c := range o.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// decide runs one admission (commit) or preview against the live state.
func (o *serialOracle) decide(spec ConnSpec, commit bool) (Decision, error) {
	if err := spec.Validate(); err != nil {
		return Decision{}, err
	}
	if _, dup := o.conns[spec.ID]; dup {
		return Decision{}, fmt.Errorf("core: connection %q already admitted", spec.ID)
	}
	for _, c := range o.conns {
		if c.Src == spec.Src {
			return Decision{Reason: ReasonHostBusy}, nil
		}
	}
	route, err := o.net.Route(spec.Src, spec.Dst)
	if err != nil {
		return Decision{Reason: ReasonInvalidTarget}, nil
	}
	dec := Decision{HSMaxAvail: o.rings[spec.Src.Ring].Available()}
	if route.CrossesBackbone {
		dec.HRMaxAvail = o.rings[spec.Dst.Ring].Available()
	}
	if dec.HSMaxAvail < o.opts.HMinAbs ||
		(route.CrossesBackbone && dec.HRMaxAvail < o.opts.HMinAbs) {
		dec.Reason = ReasonNoBandwidth
		return dec, nil
	}
	dec, cand, err := decideAgainst(o.analyzer, o.opts, o.connections(), dec, spec, route)
	if err != nil {
		return Decision{}, err
	}
	if dec.Admitted && commit {
		if err := o.commit(cand, dec.HS, dec.HR); err != nil {
			return Decision{}, err
		}
	}
	return dec, nil
}

// commit charges both rings or neither, and records the candidate only when
// both charges went through.
func (o *serialOracle) commit(cand *Connection, hs, hr float64) error {
	if err := o.rings[cand.Src.Ring].Allocate(cand.ID, hs); err != nil {
		return fmt.Errorf("core: committing sender allocation: %w", err)
	}
	if cand.Route.CrossesBackbone {
		if err := o.rings[cand.Dst.Ring].Allocate(cand.ID, hr); err != nil {
			o.rings[cand.Src.Ring].Release(cand.ID)
			return fmt.Errorf("core: committing receiver allocation: %w", err)
		}
	}
	cand.HS, cand.HR = hs, hr
	o.conns[cand.ID] = cand
	return nil
}

// release tears down an admitted connection, reporting whether it existed.
func (o *serialOracle) release(id string) bool {
	conn, ok := o.conns[id]
	if !ok {
		return false
	}
	delete(o.conns, id)
	o.rings[conn.Src.Ring].Release(id)
	if conn.Route.CrossesBackbone {
		o.rings[conn.Dst.Ring].Release(id)
	}
	return true
}

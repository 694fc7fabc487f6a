package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; Inc and Add are single atomic operations.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a float64 metric that can go up and down. All methods are safe
// for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative) with a compare-and-swap loop.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed buckets and tracks their sum.
// Observe is lock-free: one atomic add per observation plus a
// compare-and-swap loop for the sum.
type Histogram struct {
	upper   []float64 // ascending bucket upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets returns the registry's default 1–2.5–5 decade grid for
// wall-time histograms, spanning 100 µs to 50 s. The grid covers every
// latency this repository produces: sub-millisecond report ops, multi-
// millisecond CAC admissions, and multi-second simulation replications.
func LatencyBuckets() []float64 {
	const lowest = 1e-4 // seconds; the smallest latency bucket bound
	var out []float64
	for decade := lowest; decade < 100; decade *= 10 {
		out = append(out, decade, 2.5*decade, 5*decade)
	}
	return out
}

// kind discriminates the metric families a Registry can hold.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance within a family.
type child struct {
	labels string // rendered as `k1="v1",k2="v2"`, or "" for no labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the children sharing one metric name.
type family struct {
	name     string
	help     string
	kind     kind
	children []*child
}

// A Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration normally happens once, from package-level
// var initializers; rendering may run concurrently with metric updates and
// with registrations.
type Registry struct {
	mu sync.Mutex
	// fams is the family table, keyed by metric name. guarded by mu.
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter registers and returns a counter. labels are alternating key,
// value pairs baked into the metric at registration time.
// Registering the same name with a different type or help, or the same
// (name, labels) twice, panics: both are programmer errors caught at init.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, &child{c: c})
	return c
}

// Gauge registers and returns a gauge. See Counter for label semantics.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, labels, &child{g: g})
	return g
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (+Inf is implicit). See Counter for label semantics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets must be strictly ascending")
		}
	}
	h := &Histogram{upper: buckets, buckets: make([]atomic.Uint64, len(buckets)+1)}
	r.register(name, help, kindHistogram, labels, &child{h: h})
	return h
}

// register files one child under its family, creating the family on first
// use. A type or help that differs from the first registration, or a label
// set already registered, panics.
func (r *Registry) register(name, help string, k kind, labels []string, ch *child) {
	if len(labels)%2 != 0 {
		panic("obs: metric " + name + " labels must be key,value pairs")
	}
	if name == "" || help == "" {
		panic("obs: metric needs a name and a help string")
	}
	ch.labels = renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.fams[name] = f
	}
	if f.kind != k || f.help != help {
		panic("obs: metric " + name + " re-registered with a different type or help")
	}
	for _, existing := range f.children {
		if existing.labels == ch.labels {
			panic("obs: metric " + name + "{" + ch.labels + "} registered twice")
		}
	}
	f.children = append(f.children, ch)
}

// renderLabels renders alternating key, value pairs as `k1="v1",k2="v2"`.
func renderLabels(labels []string) string {
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	return b.String()
}

// Names returns the registered family names, sorted. The OPERATIONS.md
// catalog test uses it to keep the documentation in lockstep with the code.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.fams))
	for name := range r.fams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), sorted by family name and label string so output
// is stable across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy each family with its child list under the lock: a registration
	// appends to the list while a scrape runs.
	r.mu.Lock()
	fams := make([]family, 0, len(r.fams))
	for _, f := range r.fams {
		cp := *f
		cp.children = append([]*child(nil), f.children...)
		fams = append(fams, cp)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		children := f.children
		sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })
		for _, ch := range children {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(ch.labels), ch.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, braced(ch.labels), formatFloat(ch.g.Value()))
			case kindHistogram:
				cum := uint64(0)
				for i, bound := range ch.h.upper {
					cum += ch.h.buckets[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, braced(joinLabels(ch.labels, `le=`+strconv.Quote(formatFloat(bound)))), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, braced(joinLabels(ch.labels, `le="+Inf"`)), ch.h.Count())
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(ch.labels), formatFloat(ch.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(ch.labels), ch.h.Count())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving WritePrometheus — the /metrics
// endpoint of the daemon.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors here mean the client hung up mid-scrape; nothing to do.
		_ = r.WritePrometheus(w)
	})
}

// braced wraps a rendered label string for exposition, or returns "" for
// unlabeled children.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels appends one rendered label to an existing label string.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

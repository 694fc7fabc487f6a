package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "a histogram", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 106.5 {
		t.Errorf("sum = %v, want 106.5", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_seconds a histogram
# TYPE test_seconds histogram
test_seconds_bucket{le="1"} 2
test_seconds_bucket{le="10"} 3
test_seconds_bucket{le="+Inf"} 4
test_seconds_sum 106.5
test_seconds_count 4
`
	if b.String() != want {
		t.Errorf("render:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWritePrometheusSortedAndLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "last by name").Inc()
	ok := r.Counter("aaa_total", "first by name", "op", "admit")
	bad := r.Counter("aaa_total", "first by name", "op", "release")
	ok.Add(2)
	bad.Inc()
	g := r.Gauge("mid_gauge", "a gauge")
	g.Set(math.Inf(1))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aaa_total first by name
# TYPE aaa_total counter
aaa_total{op="admit"} 2
aaa_total{op="release"} 1
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge +Inf
# HELP zzz_total last by name
# TYPE zzz_total counter
zzz_total 1
`
	if b.String() != want {
		t.Errorf("render:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b")
	r.Counter("a_total", "a")
	r.Histogram("c_seconds", "c", LatencyBuckets())
	got := r.Names()
	want := []string{"a_total", "b_total", "c_seconds"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"type conflict", func(r *Registry) { r.Counter("m", "h"); r.Gauge("m", "h") }},
		{"help conflict", func(r *Registry) { r.Counter("m", "h1"); r.Counter("m", "h2") }},
		{"duplicate labels", func(r *Registry) { r.Counter("m", "h", "op", "x"); r.Counter("m", "h", "op", "x") }},
		{"odd labels", func(r *Registry) { r.Counter("m", "h", "op") }},
		{"empty help", func(r *Registry) { r.Counter("m", "") }},
		{"no buckets", func(r *Registry) { r.Histogram("m", "h", nil) }},
		{"descending buckets", func(r *Registry) { r.Histogram("m", "h", []float64{2, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestLatencyBucketsAscending(t *testing.T) {
	b := LatencyBuckets()
	if len(b) == 0 {
		t.Fatal("no buckets")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
	// The grid must cover the repo's latency range: sub-millisecond ops up
	// to multi-second simulation replications.
	if b[0] > 1e-3 || b[len(b)-1] < 10 {
		t.Fatalf("bucket range [%v, %v] does not span 1ms..10s", b[0], b[len(b)-1])
	}
}

// TestConcurrentScrape exercises render-during-update; the race detector
// (make race) is the actual assertion.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits")
	h := r.Histogram("lat_seconds", "lat", LatencyBuckets())
	g := r.Gauge("active", "active")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001 * float64(i%7))
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Errorf("histogram count = %d, want 4000", h.Count())
	}
}

// TestMetricUpdatesAllocationFree guards the zero-alloc fast path: metric
// updates and reads on pre-registered handles must not allocate.
func TestMetricUpdatesAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", LatencyBuckets())
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		h.Observe(0.004)
		sink += float64(c.Value()+h.Count()) + g.Value() + h.Sum()
	}); n != 0 {
		t.Errorf("metric updates allocate %v times per run, want 0", n)
	}
	_ = sink
}

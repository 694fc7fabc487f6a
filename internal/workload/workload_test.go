package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"fafnet/internal/des"
	"fafnet/internal/scenario"
)

func TestDefaultSpecValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() Spec { return Default() }
	cases := []struct {
		name string
		mod  func(*Spec)
		want string
	}{
		{"no classes", func(s *Spec) { s.Classes = nil }, "no classes"},
		{"unnamed class", func(s *Spec) { s.Classes[0].Name = "" }, "has no name"},
		{"duplicate name", func(s *Spec) { s.Classes[1].Name = s.Classes[0].Name }, "duplicate class name"},
		{"unknown process", func(s *Spec) { s.Classes[0].Arrival.Process = "uniform" }, "unknown arrival process"},
		{"gamma needs shape", func(s *Spec) { s.Classes[1].Arrival.Shape = 0 }, "positive shape"},
		{"rate positive", func(s *Spec) { s.Classes[0].Arrival.RatePerSec = 0 }, "must be positive"},
		{"unknown lifetime", func(s *Spec) { s.Classes[0].Lifetime.Dist = "erlang" }, "unknown lifetime distribution"},
		{"pareto tail", func(s *Spec) { s.Classes[1].Lifetime.Shape = 1 }, "tail index > 1"},
		{"lognormal sigma", func(s *Spec) { s.Classes[2].Lifetime.Shape = 0 }, "positive sigma"},
		{"mean lifetime", func(s *Spec) { s.Classes[0].Lifetime.MeanSeconds = -3 }, "must be positive"},
		{"bad source", func(s *Spec) { s.Classes[0].Source.Type = "fractal" }, "unknown source type"},
		{"no deadline", func(s *Spec) { s.Classes[0].SLOMillis = 0 }, "sloMillis > 0 or a deadline range"},
		{"inverted range", func(s *Spec) {
			s.Classes[1].DeadlineMinMillis, s.Classes[1].DeadlineMaxMillis = 70, 40
		}, "deadline range"},
		{"diurnal period", func(s *Spec) { s.Classes[2].Diurnal.PeriodSeconds = 0 }, "period"},
		{"diurnal amplitude", func(s *Spec) { s.Classes[2].Diurnal.Amplitude = 1 }, "amplitude"},
		{"diurnal amplitude negative", func(s *Spec) { s.Classes[2].Diurnal.Amplitude = -0.1 }, "must not be negative"},
		{"diurnal amplitude spins", func(s *Spec) { s.Classes[2].Diurnal.Amplitude = 0.99999999 }, "with probability 5e-09"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mod(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name":"x","classes":[],"burstiness":3}`))
	if err == nil || !strings.Contains(err.Error(), "burstiness") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	const doc = `{
		"name": "two-class",
		"classes": [
			{"name": "a", "arrival": {"process": "poisson", "ratePerSec": 1},
			 "lifetime": {"dist": "exponential", "meanSeconds": 30},
			 "source": {"type": "cbr", "rateMbps": 1}, "sloMillis": 50},
			{"name": "b", "arrival": {"process": "weibull", "ratePerSec": 0.5, "shape": 2},
			 "lifetime": {"dist": "pareto", "meanSeconds": 60, "shape": 2.5},
			 "source": {"type": "periodic", "c1Kbit": 8, "p1Millis": 5},
			 "deadlineMinMillis": 40, "deadlineMaxMillis": 70,
			 "diurnal": {"periodSeconds": 600, "amplitude": 0.4}}
		]
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Classes) != 2 || s.Classes[1].Diurnal == nil {
		t.Fatalf("parsed spec lost structure: %+v", s)
	}
}

func collect(t *testing.T, spec Spec, seed int64, n int) []ClassArrival {
	t.Helper()
	g, err := NewGenerator(spec, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	out := make([]ClassArrival, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestGeneratorDeterministicAndOrdered(t *testing.T) {
	spec := Default()
	a := collect(t, spec, 7, 500)
	b := collect(t, spec, 7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) produced different streams")
	}
	c := collect(t, spec, 8, 500)
	if reflect.DeepEqual(a[:50], c[:50]) {
		t.Fatal("different seeds produced identical streams")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("arrival %d at %v precedes %v", i, a[i].At, a[i-1].At)
		}
	}
	seen := map[string]bool{}
	for _, ev := range a {
		seen[ev.Class] = true
		if ev.Deadline <= 0 || ev.Lifetime <= 0 {
			t.Fatalf("non-positive draw in %+v", ev)
		}
	}
	for _, c := range spec.Classes {
		if !seen[c.Name] {
			t.Fatalf("class %q never arrived in 500 draws", c.Name)
		}
	}
}

// TestGeneratorClassIsolation pins the stream-separation property: removing
// one class must not perturb the draws of the others.
func TestGeneratorClassIsolation(t *testing.T) {
	spec := Default()
	full := collect(t, spec, 11, 400)
	reduced := Spec{Name: spec.Name, Classes: spec.Classes[:2]}
	sub := collect(t, reduced, 11, 200)
	var fullFiltered []ClassArrival
	for _, ev := range full {
		if ev.ClassIndex < 2 {
			fullFiltered = append(fullFiltered, ev)
		}
	}
	if len(fullFiltered) < len(sub) {
		sub = sub[:len(fullFiltered)]
	}
	if !reflect.DeepEqual(fullFiltered[:len(sub)], sub) {
		t.Fatal("dropping a class perturbed the remaining classes' streams")
	}
}

func TestGeneratorRealizedRate(t *testing.T) {
	spec := Spec{Name: "rate", Classes: []Class{{
		Name:      "a",
		Arrival:   Arrival{Process: ProcessPoisson, RatePerSec: 2},
		Lifetime:  Lifetime{Dist: LifetimeExponential, MeanSeconds: 10},
		Source:    scenario.Source{Type: "cbr", RateMbps: 1},
		SLOMillis: 50,
	}}}
	const n = 20000
	evs := collect(t, spec, 3, n)
	rate := float64(n) / evs[n-1].At
	if math.Abs(rate-2) > 0.1 {
		t.Fatalf("realized rate %.3f, want ~2", rate)
	}
}

// TestDiurnalThinning checks both properties of the thinned process: the
// long-run rate still matches the configured base rate, and arrivals are
// denser in the peak half-period than in the trough half-period.
func TestDiurnalThinning(t *testing.T) {
	period := 100.0
	spec := Spec{Name: "diurnal", Classes: []Class{{
		Name:      "a",
		Arrival:   Arrival{Process: ProcessPoisson, RatePerSec: 2},
		Lifetime:  Lifetime{Dist: LifetimeExponential, MeanSeconds: 10},
		Source:    scenario.Source{Type: "cbr", RateMbps: 1},
		SLOMillis: 50,
		Diurnal:   &Diurnal{PeriodSeconds: period, Amplitude: 0.8},
	}}}
	const n = 40000
	evs := collect(t, spec, 5, n)
	rate := float64(n) / evs[n-1].At
	if math.Abs(rate-2) > 0.1 {
		t.Fatalf("realized diurnal rate %.3f, want ~2 (thinning must preserve the mean)", rate)
	}
	var peak, trough int
	for _, ev := range evs {
		phase := math.Mod(ev.At, period) / period
		if phase < 0.5 {
			peak++ // sin positive: above-mean rate
		} else {
			trough++
		}
	}
	if float64(peak) < 1.5*float64(trough) {
		t.Fatalf("peak half got %d arrivals vs trough %d; modulation not visible", peak, trough)
	}
}

func TestLifetimeMeans(t *testing.T) {
	for _, tc := range []struct {
		name string
		lt   Lifetime
	}{
		{"exponential", Lifetime{Dist: LifetimeExponential, MeanSeconds: 40}},
		{"pareto", Lifetime{Dist: LifetimePareto, MeanSeconds: 40, Shape: 3}},
		{"lognormal", Lifetime{Dist: LifetimeLognormal, MeanSeconds: 40, Shape: 0.6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Name: "lt", Classes: []Class{{
				Name:      "a",
				Arrival:   Arrival{Process: ProcessPoisson, RatePerSec: 1},
				Lifetime:  tc.lt,
				Source:    scenario.Source{Type: "cbr", RateMbps: 1},
				SLOMillis: 50,
			}}}
			const n = 30000
			evs := collect(t, spec, 9, n)
			var sum float64
			for _, ev := range evs {
				sum += ev.Lifetime
			}
			mean := sum / n
			if math.Abs(mean-40)/40 > 0.08 {
				t.Fatalf("mean lifetime %.2f, want ~40", mean)
			}
		})
	}
}

func TestRandomSpecAlwaysValid(t *testing.T) {
	rng := des.NewRNG(1)
	for i := 0; i < 500; i++ {
		s := RandomSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("RandomSpec draw %d invalid: %v", i, err)
		}
		if _, err := NewGenerator(s, int64(i)); err != nil {
			t.Fatalf("RandomSpec draw %d: generator: %v", i, err)
		}
	}
}

func traceEvents() []Event {
	req := scenario.Request{
		ID: "w1", SrcRing: 0, SrcHost: 1, DstRing: 2, DstHost: 3,
		DeadlineMillis: 0.1 + 0.2, // deliberately non-representable sum
		Source:         scenario.Source{Type: "cbr", RateMbps: 2},
	}
	return []Event{
		{At: 0.1, Class: "voice", LifetimeSeconds: 1.0 / 3.0, Req: req},
		{At: math.Nextafter(0.1, 1), Class: "video", LifetimeSeconds: 59.999999999999986, Req: req},
	}
}

func TestTraceRoundTripBitExact(t *testing.T) {
	events := traceEvents()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip changed events:\n got %+v\nwant %+v", got, events)
	}
	// Bit-exactness, not approximate equality, is the contract.
	if math.Float64bits(got[0].LifetimeSeconds) != math.Float64bits(events[0].LifetimeSeconds) {
		t.Fatal("float lost bits through the trace")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	events := traceEvents()
	path := t.TempDir() + "/trace.jsonl"
	if err := SaveTrace(path, events); err != nil {
		t.Fatalf("SaveTrace: %v", err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("file round trip changed events")
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"at\":1}\nnot json\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want malformed-line error naming line 2, got %v", err)
	}
	if _, err := ReadTrace(strings.NewReader("{\"at\":2}\n{\"at\":1}\n")); err == nil || !strings.Contains(err.Error(), "precedes") {
		t.Fatalf("want decreasing-time error, got %v", err)
	}
	got, err := ReadTrace(strings.NewReader("{\"at\":1,\"class\":\"a\"}\n\n{\"at\":2,\"class\":\"b\"}\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("blank lines should be skipped, got %d events, err %v", len(got), err)
	}
}

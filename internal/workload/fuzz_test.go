package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// generateBound is how long 50 arrivals of an accepted spec may take to
// draw. They cost microseconds; a generator that spins (the thinning loop at
// an amplitude next to 1) never comes back, so the bound is a watchdog on a
// goroutine rather than a stopwatch read after the fact.
const generateBound = 2 * time.Second

// FuzzParse feeds arbitrary bytes to Parse. Nothing may panic, and a spec
// Parse accepts must be one the generator can run: NewGenerator succeeds and
// its first 50 arrivals come back within generateBound, at finite
// non-decreasing instants, each with a positive finite deadline and a
// non-negative lifetime.
//
// The committed corpus (testdata/fuzz/FuzzParse) is the default spec, one
// class per arrival process and lifetime distribution, a trough-phased
// diurnal class whose amplitude is 1−10⁻⁸ (3.3 s to its first arrival before
// Validate bounded the thinning acceptance), a Weibull shape whose scale needs
// Γ(1001) (a panic in the first draw before the constructors refused it), a
// diurnal period of 10⁻³²⁰ s (a NaN factor thinning compared against forever),
// an arrival rate of 10⁻³⁰⁷/s (a clock at +Inf after two gaps), an unknown
// field and a truncated document.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		type outcome struct {
			arrivals []ClassArrival
			err      error
		}
		done := make(chan outcome, 1) // the one send must not block a generator that outlives the watchdog
		go func() {
			g, err := NewGenerator(spec, 1)
			if err != nil {
				done <- outcome{err: err}
				return
			}
			arrivals := make([]ClassArrival, 50)
			for i := range arrivals {
				arrivals[i] = g.Next()
			}
			done <- outcome{arrivals: arrivals}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(generateBound):
			t.Fatalf("50 arrivals of an accepted spec took more than %v", generateBound)
		}
		if out.err != nil {
			t.Fatalf("Parse accepted a spec NewGenerator rejects: %v", out.err)
		}
		last := 0.0
		for i, a := range out.arrivals {
			switch {
			case math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At < last:
				t.Fatalf("arrival %d at %v after %v", i, a.At, last)
			case !(a.Deadline > 0) || math.IsInf(a.Deadline, 0):
				t.Fatalf("arrival %d has deadline %v", i, a.Deadline)
			case !(a.Lifetime >= 0):
				t.Fatalf("arrival %d has lifetime %v", i, a.Lifetime)
			}
			last = a.At
		}
	})
}

// FuzzReadTrace feeds arbitrary bytes to ReadTrace. Nothing may panic, and
// an accepted trace must survive WriteTrace∘ReadTrace unchanged: record →
// replay is bit-identical only if the encoding loses nothing.
//
// The committed corpus (testdata/fuzz/FuzzReadTrace) is a two-event trace,
// one with a blank line, a decreasing timestamp, a malformed line and a
// 1e308 field.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("trace does not decode from its own encoding %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("trace changed in a round trip: %+v became %+v", events, back)
		}
	})
}

package des

import (
	"errors"
	"math"
	"sort"
	"testing"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	s := NewSimulator()
	var order []float64
	for _, tm := range []float64{3, 1, 2, 5, 4} {
		tm := tm
		if _, err := s.Schedule(tm, func() { order = append(order, tm) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Run(10); n != 5 {
		t.Fatalf("Run processed %d events, want 5", n)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v, want 10 (advanced to until)", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.Schedule(1.0, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := NewSimulator()
	if _, err := s.Schedule(5, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	_, err := s.Schedule(1, nil)
	if !errors.Is(err, ErrPastEvent) {
		t.Errorf("scheduling in the past: err = %v, want ErrPastEvent", err)
	}
}

func TestScheduleNonFiniteRejected(t *testing.T) {
	s := NewSimulator()
	if _, err := s.Schedule(math.NaN(), nil); err == nil {
		t.Error("NaN time should be rejected")
	}
	if _, err := s.Schedule(math.Inf(1), nil); err == nil {
		t.Error("+Inf time should be rejected")
	}
}

func TestRunUntilBoundary(t *testing.T) {
	s := NewSimulator()
	fired := 0
	if _, err := s.Schedule(1, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(2, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(3, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(2) // events at exactly `until` still fire
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	s.Run(3)
	if fired != 3 {
		t.Errorf("after second run, fired = %d, want 3", fired)
	}
}

// TestRunAdvancesClockToUntil: a bounded run that empties the calendar
// leaves the clock at until, so the next run's After counts from there. The
// times are below one second, where until and its square order differently.
func TestRunAdvancesClockToUntil(t *testing.T) {
	s := NewSimulator()
	if _, err := s.Schedule(0.3, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(0.5)
	if s.Now() != 0.5 {
		t.Fatalf("clock after Run(0.5) with the calendar empty at 0.3 = %v, want 0.5", s.Now())
	}
	ev, err := s.After(0.1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Time != 0.6 {
		t.Errorf("After(0.1) from the advanced clock fires at %v, want 0.6", ev.Time)
	}
}

func TestEventsMayScheduleEvents(t *testing.T) {
	s := NewSimulator()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			if _, err := s.After(0.5, chain); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	if _, err := s.Schedule(0, chain); err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	if count != 100 {
		t.Errorf("chain fired %d times, want 100", count)
	}
	if got, want := s.Now(), 1000.0; got != want {
		t.Errorf("Now = %v, want %v", got, want)
	}
}

func TestHalt(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		if _, err := s.Schedule(float64(i), func() {
			count++
			if i == 3 {
				s.Halt()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(100)
	if count != 3 {
		t.Errorf("processed %d events before halt, want 3", count)
	}
	// A subsequent Run resumes.
	s.Run(100)
	if count != 10 {
		t.Errorf("after resume, processed %d, want 10", count)
	}
}

func TestStep(t *testing.T) {
	s := NewSimulator()
	if s.Step() {
		t.Error("Step on empty calendar should report false")
	}
	fired := false
	if _, err := s.Schedule(2, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if !s.Step() {
		t.Error("Step should fire the pending event")
	}
	if !fired || s.Now() != 2 {
		t.Errorf("fired=%v now=%v, want true/2", fired, s.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Exp(3) != b.Exp(3) {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("empirical mean %v, want ≈2.5", mean)
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) should panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestUniform(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", v)
		}
	}
}

func TestPoissonProcess(t *testing.T) {
	if _, err := NewPoissonProcess(NewRNG(1), 0); err == nil {
		t.Error("zero rate should be rejected")
	}
	if _, err := NewPoissonProcess(nil, 1); err == nil {
		t.Error("nil RNG should be rejected")
	}
	p, err := NewPoissonProcess(NewRNG(11), 4) // 4 events/second
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.Next()
	}
	mean := sum / n
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("mean inter-arrival %v, want ≈0.25", mean)
	}
}

// TestScheduleRunAllocs: the calendar holds events by value, so once its
// slice has grown to the working set, scheduling and firing allocate
// nothing.
func TestScheduleRunAllocs(t *testing.T) {
	s := NewSimulator()
	fired := 0
	fire := func() { fired++ }
	round := func() {
		for i := 0; i < 64; i++ {
			if _, err := s.After(float64(i%8), fire); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(s.Now() + 10)
	}
	round() // grow the calendar
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("Schedule+Run on a warmed simulator: %v allocs per round, want 0", avg)
	}
	if fired != 64*102 {
		t.Errorf("fired %d events, want %d", fired, 64*102)
	}
}

// FuzzCalendarOrder drives the simulator with a byte-coded mix of Schedule,
// After, Run(until), Step and Halt, with equal times and handlers that
// schedule children. Every firing must be the earliest (time, seq) of a
// naive reference list, and Run must stop exactly where the reference says.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 7})
	f.Add([]byte{4, 2, 4, 2, 5, 0, 0, 0, 2, 3, 2, 8, 3, 3})
	f.Add([]byte{1, 3, 1, 3, 1, 3, 5, 3, 4, 1, 2, 2, 2, 2, 3, 2, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ref struct {
			time float64
			seq  int
		}
		s := NewSimulator()
		var pending []ref // the reference calendar, unordered
		seq := 0
		halted := false
		now := 0.0
		arg := func(i *int) float64 {
			*i++
			if *i >= len(ops) {
				return 0
			}
			return float64(ops[*i]%4) * 0.5 // few distinct times: many ties
		}
		var schedule func(at float64, kind byte, child float64)
		handler := func(id int, kind byte, child float64) func() {
			return func() {
				best := 0
				for j := range pending {
					p, b := pending[j], pending[best]
					if p.time < b.time || (p.time == b.time && p.seq < b.seq) {
						best = j
					}
				}
				if len(pending) == 0 || pending[best].seq != id {
					t.Fatalf("event %d fired; reference says %v", id, pending)
				}
				if s.Now() != pending[best].time {
					t.Fatalf("event %d fired at %v, scheduled for %v", id, s.Now(), pending[best].time)
				}
				now = s.Now()
				pending = append(pending[:best], pending[best+1:]...)
				switch kind {
				case 4:
					schedule(now+child, 0, 0)
				case 5:
					s.Halt()
					halted = true
				}
			}
		}
		schedule = func(at float64, kind byte, child float64) {
			id := seq
			seq++
			ev, err := s.Schedule(at, handler(id, kind, child))
			if err != nil || ev.Time != at {
				t.Fatalf("Schedule(%v) = %v, %v", at, ev, err)
			}
			pending = append(pending, ref{at, id})
		}
		for i := 0; i < len(ops); i++ {
			switch op := ops[i] % 6; op {
			case 0, 4, 5:
				d := arg(&i)
				schedule(s.Now()+d, op, arg(&i))
			case 1:
				id := seq
				seq++
				d := arg(&i)
				at := s.Now() + d // what After computes
				if _, err := s.After(d, handler(id, 0, 0)); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, ref{at, id})
			case 2:
				until := s.Now() + 2*arg(&i)
				before := len(pending) - seq
				halted = false
				n := s.Run(until)
				if fired := before - len(pending) + seq; n != fired {
					t.Fatalf("Run reported %d events, %d fired", n, fired)
				}
				if !halted {
					for _, p := range pending {
						if p.time <= until {
							t.Fatalf("Run(%v) returned with event %d at %v pending", until, p.seq, p.time)
						}
					}
				}
				if len(pending) == 0 && now < until {
					now = until // an emptied calendar advances the clock, halted or not
				}
				if s.Now() != now {
					t.Fatalf("clock %v after Run(%v), want %v", s.Now(), until, now)
				}
			case 3:
				want := len(pending) > 0
				if s.Step() != want {
					t.Fatalf("Step reported %v with %d pending", !want, len(pending))
				}
			}
			if s.Pending() != len(pending) {
				t.Fatalf("Pending = %d, reference holds %d", s.Pending(), len(pending))
			}
		}
	})
}

// TestFIFO checks order across growth and wrap-around, and that a warmed
// ring pushes and pops without allocating.
func TestFIFO(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%13+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%7 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); avg != 0 {
		t.Errorf("warmed FIFO: %v allocs per round, want 0", avg)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop of an empty FIFO should panic")
		}
	}()
	q.Pop()
}

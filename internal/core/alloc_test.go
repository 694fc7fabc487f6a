package core

import "testing"

// TestWarmProbeEvaluationAllocationFree pins the probe session's warm reset
// path: after the first probe has built the scratch evaluation, preparing
// the next probe (revalidating the allocation, clearing the memo maps, and
// re-seeding the probe-invariant results) must not allocate. The reseed
// method carries a //fafvet:hotpath annotation, so the static analyzer
// proves the same property at build time; this test catches dynamic
// regressions the analyzer cannot see, such as map re-seeding outgrowing
// the buckets retained by clear().
func TestWarmProbeEvaluationAllocationFree(t *testing.T) {
	ctl := loadedController(t)
	existing := ctl.Connections()
	cand := testConnOn(t, ctl.Network(), "probe", 0, 0, 1, 0, 0, 0)
	s, err := analyzerOf(ctl).NewProbeSession(existing, cand)
	if err != nil {
		t.Fatal(err)
	}
	// First probe: allocates the scratch evaluation and warms every memo.
	if _, err := s.Delays(1e-3, 1.4e-3); err != nil {
		t.Fatal(err)
	}

	var evalErr error
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.evaluation(1e-3, 1.4e-3); err != nil {
			evalErr = err
		}
	}); n != 0 {
		t.Errorf("warm probe evaluation reset: %v allocs per run, want 0", n)
	}
	if evalErr != nil {
		t.Fatal(evalErr)
	}
}

package randsrc_test

import (
	"testing"

	"fafnet/internal/lint/linttest"
	"fafnet/internal/lint/randsrc"
)

func TestRandsrc(t *testing.T) {
	linttest.Run(t, randsrc.Analyzer, "testdata/d", "fafnet/internal/des/linttestdata")
}

// TestOutOfScope checks that packages outside the simulation set may use the
// wall clock (the signaling server legitimately measures real time).
func TestOutOfScope(t *testing.T) {
	linttest.RunExpectNone(t, randsrc.Analyzer, "testdata/d", "fafnet/internal/signaling/linttestdata")
}

// TestAtomicBan checks the module-wide rule from a package outside the
// simulation set, and that code outside the module is left alone.
func TestAtomicBan(t *testing.T) {
	linttest.Run(t, randsrc.Analyzer, "testdata/atomics", "fafnet/internal/signaling/linttestdata")
	linttest.RunExpectNone(t, randsrc.Analyzer, "testdata/atomics", "example.com/linttestdata")
}

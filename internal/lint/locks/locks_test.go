package locks_test

import (
	"testing"

	"fafnet/internal/lint/linttest"
	"fafnet/internal/lint/locks"
)

// TestLocks runs the want-test fixtures: l for the lock rule and blocking
// under a lock, g for guarded state.
func TestLocks(t *testing.T) {
	t.Run("lock_rule", func(t *testing.T) {
		linttest.Run(t, locks.Analyzer, "testdata/l", "fafnet/internal/signaling/linttestdata")
	})
	t.Run("guarded_state", func(t *testing.T) {
		linttest.Run(t, locks.Analyzer, "testdata/g", "fafnet/internal/guardtestdata")
	})
}

// TestOutOfModule checks that the rule, while repo-wide, still stops at the
// module boundary: the same sources posing as third-party packages draw no
// findings.
func TestOutOfModule(t *testing.T) {
	t.Run("lock_rule", func(t *testing.T) {
		linttest.RunExpectNone(t, locks.Analyzer, "testdata/l", "example.com/external/l")
	})
	t.Run("guarded_state", func(t *testing.T) {
		linttest.RunExpectNone(t, locks.Analyzer, "testdata/g", "example.com/external/g")
	})
}

package unitcheck_test

import (
	"testing"

	"fafnet/internal/lint/linttest"
	"fafnet/internal/lint/unitcheck"
)

func TestUnitcheck(t *testing.T) {
	linttest.Run(t, unitcheck.Analyzer, "testdata/a", "fafnet/internal/linttestdata/a")
}

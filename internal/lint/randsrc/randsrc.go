// Package randsrc defines the analyzer that holds this module's API bans.
// Two keep the simulation packages replayable: every random draw must come
// from the seeded des.RNG, and simulation logic must never read the wall
// clock. A single global rand.Float64() or time.Now() breaks bit-exact
// replication of experiment runs (internal/sim replays scenarios by seed) and
// invalidates the paired-seed comparisons the evaluation rests on. The third
// holds module-wide: shared words are typed atomics, never plain variables
// passed to the function-style sync/atomic API, so a variable cannot be
// accessed atomically in one place and plainly in another.
package randsrc

import (
	"go/types"
	"strings"

	"fafnet/internal/lint"
)

// Analyzer forbids unseeded randomness and wall-clock reads in simulators,
// and the function-style sync/atomic API in the module's non-test code.
var Analyzer = &lint.Analyzer{
	Name: "randsrc",
	Doc: `forbid global math/rand and time.Now in simulators, function-style sync/atomic everywhere

Inside internal/des, internal/sim, internal/packetsim, internal/workload,
internal/atm, internal/fddi, internal/tokenring, internal/ifdev,
internal/shaper, internal/traffic, internal/core and internal/units, every
variate must be drawn from a seeded des.RNG and
time must arrive as a value: a parameter, or the DES clock (Simulator.Now)
in a simulator. The analyzer
reports any use of math/rand package-level functions (except the New*
constructors, which build seeded generators) and any use of time.Now.
In every non-test file of the module it reports any use of a sync/atomic
package-level function: atomic.AddUint64(&x, 1) leaves x a plain variable
that a plain read elsewhere tears, while a typed atomic (atomic.Uint64,
atomic.Pointer[T]) has no plain access to mix in.`,
	Run: run,
}

// scopes are the package-path prefixes the determinism rule covers: every
// package that runs a simulator or feeds one its seeded streams, and the
// analysis packages whose bounds must not depend on when they are computed.
var scopes = []string{
	"fafnet/internal/des",
	"fafnet/internal/sim",
	"fafnet/internal/packetsim",
	"fafnet/internal/workload",
	"fafnet/internal/atm",
	"fafnet/internal/fddi",
	"fafnet/internal/tokenring",
	"fafnet/internal/ifdev",
	"fafnet/internal/shaper",
	"fafnet/internal/traffic",
	"fafnet/internal/core",
	"fafnet/internal/units",
}

// allowedRand are math/rand package-level constructors that produce a
// generator from an explicit seed — the only sanctioned way in.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *lint.Pass) error {
	sim := false
	for _, s := range scopes {
		p := pass.Pkg.Path()
		if p == s || strings.HasPrefix(p, s+"/") {
			sim = true
			break
		}
	}
	module := lint.InModule(pass.Pkg.Path())
	if !sim && !module {
		return nil
	}
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // methods on an explicit generator or a typed atomic are fine
		}
		switch path := fn.Pkg().Path(); {
		case sim && (path == "math/rand" || path == "math/rand/v2"):
			if !allowedRand[fn.Name()] {
				pass.Reportf(id.Pos(), "global %s.%s breaks seeded replay; draw from a des.RNG", pathBase(path), fn.Name())
			}
		case sim && path == "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(id.Pos(), "time.%s reads the wall clock, which no seeded replay reproduces; take time as a value (a parameter, or Simulator.Now in a simulator)", fn.Name())
			}
		case module && path == "sync/atomic" && !pass.InTestFile(id.Pos()):
			pass.Reportf(id.Pos(), "function-style atomic.%s leaves its operand a plain variable that a plain access elsewhere tears; declare it as a typed atomic (atomic.Uint64, atomic.Pointer[T], ...)", fn.Name())
		}
	}
	return nil
}

func pathBase(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// Package dims infers physical dimensions — seconds, bits, bits-per-second —
// for float64 expressions from the naming conventions documented in
// internal/units. OfExpr is the one walker the unitcheck and floatcmp
// analyzers share.
//
// Inference is deliberately conservative: an expression only gets a dimension
// when its name (or the names it is built from) unambiguously declares one.
// Everything else is Unknown, and analyzers never report on Unknown operands,
// so terse local names (`t`, `h`, `svc`) cost coverage but never produce
// false positives. Scale prefixes (Millis, Kbit) map to the base dimension:
// the analysis checks dimensional consistency, not unit scale.
package dims

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"unicode"
)

// Kind classifies how much the engine knows about an expression.
type Kind int8

const (
	// Unknown means no dimension could be inferred; analyzers must not
	// report on Unknown operands.
	Unknown Kind = iota
	// Scalar means the expression is known to be a dimensionless number
	// (an untyped constant, a count, a ratio, a tolerance).
	Scalar
	// Physical means the expression carries the dimension in Dim.
	Physical
)

// Dim is a dimension expressed as integer exponents over the two base
// quantities of the units package: Dim{T:1} is seconds, Dim{B:1} is bits,
// Dim{T:-1, B:1} is bits per second.
type Dim struct {
	T int8 // exponent of time (seconds)
	B int8 // exponent of data (bits)
}

// The three dimensions the units package works in.
var (
	Seconds = Dim{T: 1}
	Bits    = Dim{B: 1}
	Bps     = Dim{T: -1, B: 1}
)

// String renders the dimension for diagnostics.
func (d Dim) String() string {
	switch d {
	case Dim{}:
		return "dimensionless"
	case Seconds:
		return "seconds"
	case Bits:
		return "bits"
	case Bps:
		return "bits/second"
	}
	return fmt_exp("s", d.T) + fmt_exp("·bit", d.B)
}

func fmt_exp(base string, e int8) string {
	switch e {
	case 0:
		return ""
	case 1:
		return base
	default:
		return base + "^" + strconv.Itoa(int(e))
	}
}

// Recognized reports whether d is one of the dimensions the units package
// sanctions: dimensionless, seconds, bits, or bits/second. Arithmetic whose
// result falls outside this set (seconds², rate², bit-seconds) is flagged by
// unitcheck as a likely dimensional bug.
func (d Dim) Recognized() bool {
	return d == Dim{} || d == Seconds || d == Bits || d == Bps
}

// Words that pin an identifier to the time dimension wherever they appear.
// Note "second"/"millisecond" are deliberately absent: units.Millisecond and
// friends are unit-conversion factors, which this analysis treats as
// dimensionless scale (a Millis-suffixed name already carries the time
// dimension; multiplying by the conversion factor must preserve it).
var timeWords = map[string]bool{
	"delay": true, "latency": true, "deadline": true, "ttrt": true,
	"tht": true, "jitter": true, "propagation": true, "horizon": true,
	"rotation": true, "overhead": true, "time": true, "period": true,
	"interval": true,
}

// Plural words that count events rather than name a duration:
// maxBusyRotations is a number of token rotations, while "rotation" alone
// (rotationTime, rotationDelay) is a time. singular must not fold these
// into the time word.
var countWords = map[string]bool{
	"rotations": true,
}

// Suffix words that declare a time scale (DelayMillis, HMinAbsMicros).
var timeSuffixes = map[string]bool{
	"seconds": true, "secs": true, "millis": true, "micros": true,
}

// Suffix words that declare a data volume (SigmaBits, C1Kbit, SrcKbit).
var bitSuffixes = map[string]bool{
	"bit": true, "bits": true, "kbit": true, "kbits": true,
	"mbit": true, "mbits": true,
}

// Suffix words that declare a rate (RhoBps, Kbps, Rate16Mbps).
var rateSuffixes = map[string]bool{
	"bps": true, "kbps": true, "mbps": true, "gbps": true,
}

// Words that pin an identifier to the rate dimension wherever they appear.
// A capacity is a link's or port's payload rate (internal/units), never a
// buffer size.
var rateWords = map[string]bool{
	"rate": true, "bandwidth": true, "capacity": true,
}

// FromName infers a dimension from one identifier following the repository's
// naming conventions. The boolean reports whether a dimension was inferred.
func FromName(name string) (Dim, bool) {
	words := splitWords(name)
	if len(words) == 0 {
		return Dim{}, false
	}
	last := words[len(words)-1]
	// Explicit unit suffixes take priority: they state the unit outright.
	switch {
	case rateSuffixes[last]:
		return Bps, true
	case bitSuffixes[last]:
		return Bits, true
	case timeSuffixes[last]:
		return Seconds, true
	}
	for _, w := range words {
		if countWords[w] {
			continue
		}
		w = singular(w)
		switch {
		case rateWords[w]:
			return Bps, true
		case timeWords[w]:
			return Seconds, true
		}
	}
	return Dim{}, false
}

// singular strips a plural 's' so "delays" matches "delay". Unit suffixes
// ("bits", "bps") are matched before this runs and keep their own spelling.
func singular(w string) string {
	if len(w) > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") {
		return w[:len(w)-1]
	}
	return w
}

// splitWords breaks an identifier into lowercase words on camelCase, digits
// and underscores ("SrcBufferBits" → src, buffer, bits; "P1Millis" → p1,
// millis; "TTRTMillis" → ttrt, millis).
func splitWords(name string) []string {
	var words []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = nil
		}
	}
	runes := []rune(name)
	for i, r := range runes {
		switch {
		case r == '_':
			flush()
		case unicode.IsUpper(r):
			// New word at lower→Upper and at the last capital of an
			// acronym run (TTRTMillis → TTRT | Millis).
			prevLower := i > 0 && (unicode.IsLower(runes[i-1]) || unicode.IsDigit(runes[i-1]))
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			if prevLower || (nextLower && len(cur) > 1) {
				flush()
			}
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return words
}

// IsFloat reports whether t is float64/float32 or an untyped numeric — the
// only types dimension inference applies to.
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0 || b.Info()&types.IsUntyped != 0 && b.Info()&types.IsNumeric != 0
}

// OfExpr infers the dimension of e from names alone. The returned Kind is
// Unknown whenever any contributing part resists inference.
func OfExpr(info *types.Info, e ast.Expr) (Dim, Kind) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return OfExpr(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return OfExpr(info, e.X)
		}
	case *ast.BasicLit:
		if e.Kind == token.FLOAT || e.Kind == token.INT {
			return Dim{}, Scalar
		}
	case *ast.IndexExpr:
		// delays[id]: the collection's name describes the elements.
		return OfExpr(info, e.X)
	case *ast.BinaryExpr:
		return ofBinary(info, e)
	case *ast.Ident:
		return ofNamed(info, e, e.Name)
	case *ast.SelectorExpr:
		return ofNamed(info, e, e.Sel.Name)
	case *ast.CallExpr:
		return ofCall(info, e)
	}
	return Dim{}, Unknown
}

// ofNamed infers from a (possibly qualified) identifier. Name-based inference
// runs first so that constants like fddi.MaxFrameBits keep their declared
// dimension; only nameless constants degrade to Scalar.
func ofNamed(info *types.Info, e ast.Expr, name string) (Dim, Kind) {
	tv, ok := info.Types[e]
	if !ok || !IsFloat(tv.Type) {
		return Dim{}, Unknown
	}
	if d, ok := FromName(name); ok {
		return d, Physical
	}
	if tv.Value != nil {
		// A named constant without a unit name (units.Eps, units.RelTol,
		// a grid nudge): a tolerance or scale factor, dimensionless.
		return Dim{}, Scalar
	}
	return Dim{}, Unknown
}

// ofCall infers the dimension of a call result from the callee's name:
// in.Bits(t) yields bits, in.LongTermRate() yields bits/second. A handful of
// dimension-preserving stdlib/units helpers pass their argument's dimension
// through.
func ofCall(info *types.Info, call *ast.CallExpr) (Dim, Kind) {
	tv, ok := info.Types[call]
	if !ok || !IsFloat(tv.Type) {
		return Dim{}, Unknown
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return Dim{}, Unknown
	}
	switch name {
	case "Abs", "Floor", "Ceil", "Min", "Max", "Clamp":
		// Dimension-preserving: take the first argument with a known
		// dimension; conflicting known argument dimensions are the
		// arguments' own problem (reported at the call site by unitcheck).
		for _, arg := range call.Args {
			if d, k := OfExpr(info, arg); k == Physical {
				return d, k
			}
		}
		return Dim{}, Unknown
	case "CeilDiv", "FloorDiv":
		// units.CeilDiv(a, b) counts how many b fit in a: dimensionless.
		return Dim{}, Scalar
	case "float64", "float32":
		if len(call.Args) == 1 {
			if d, k := OfExpr(info, call.Args[0]); k == Physical {
				return d, k
			}
		}
		return Dim{}, Unknown
	}
	if d, ok := FromName(name); ok {
		return d, Physical
	}
	return Dim{}, Unknown
}

// ofBinary propagates dimensions through arithmetic. Mismatches are not
// reported here — unitcheck walks the same nodes and reports; this function
// only answers "what comes out".
func ofBinary(info *types.Info, e *ast.BinaryExpr) (Dim, Kind) {
	ld, lk := OfExpr(info, e.X)
	rd, rk := OfExpr(info, e.Y)
	switch e.Op {
	case token.ADD, token.SUB:
		// The sum of a physical quantity and anything known keeps the
		// physical dimension (tolerances and scalars ride along).
		if lk == Physical {
			return ld, Physical
		}
		if rk == Physical {
			return rd, Physical
		}
		if lk == Scalar && rk == Scalar {
			return Dim{}, Scalar
		}
	case token.MUL:
		if lk == Unknown || rk == Unknown {
			return Dim{}, Unknown
		}
		return Dim{T: ld.T + rd.T, B: ld.B + rd.B}, maxKind(lk, rk)
	case token.QUO:
		if lk == Unknown || rk == Unknown {
			return Dim{}, Unknown
		}
		return Dim{T: ld.T - rd.T, B: ld.B - rd.B}, maxKind(lk, rk)
	}
	return Dim{}, Unknown
}

func maxKind(a, b Kind) Kind {
	if a == Physical || b == Physical {
		return Physical
	}
	return Scalar
}

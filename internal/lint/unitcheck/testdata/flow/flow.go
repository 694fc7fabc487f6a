// Package flow exercises unitcheck's dataflow: dimensions established
// through returns, parameter usage and struct fields are enforced where the
// names at the offending site say nothing.
package flow

// Span carries no unit in its name, but both parameters and the returned
// difference are seconds; the analyzer summarizes it as seconds → usable at
// every call site below.
func Span(startDelay, endDelay float64) float64 {
	return endDelay - startDelay
}

// Volume is bits by dataflow: the product of a rate and a duration.
func Volume(rateBps, horizon float64) float64 {
	return rateBps * horizon
}

// badStore stores the seconds result of Span under a bits name.
func badStore(a, b float64) {
	sinkBits := Span(a, b) // want `seconds value stored in "sinkBits", which is declared bits by name`
	_ = sinkBits
}

// goodStore keeps the dimensions aligned.
func goodStore(a, b float64) {
	gapMillis := Span(a, b)
	_ = gapMillis
}

// badAdd adds the seconds result of Span to a rate.
func badAdd(a, b, linkBps float64) float64 {
	return linkBps + Span(a, b) // want `cross-dimension addition: bits/second \+ seconds`
}

// Shape has one unit-named field and one whose dimension only its uses
// reveal.
type Shape struct {
	// SigmaBits is bits by name.
	SigmaBits float64
	// Window is seconds: established below by arithmetic against a
	// deadline.
	Window float64
}

// Fill teaches the analyzer that Window is seconds.
func (s *Shape) Fill(deadline float64) {
	s.Window = deadline + 0.5
}

// badField compares the seconds field against a bit count.
func badField(s *Shape) bool {
	return s.Window > s.SigmaBits // want `cross-dimension comparison: seconds > bits`
}

// badArg feeds the bits result of Volume into Span, whose parameters are
// seconds by dataflow.
func badArg(rateBps, horizon float64) float64 {
	return Span(Volume(rateBps, horizon), horizon) // want `argument is bits but parameter "startDelay" of Span wants seconds`
}

// Chained returns seconds through one level of indirection; the summary
// fixpoint resolves it.
func Chained(a, b float64) float64 {
	return Span(a, b)
}

// badChain stores the chained seconds under a rate name.
func badChain(a, b float64) {
	peakBps := Chained(a, b) // want `seconds value stored in "peakBps", which is declared bits/second by name`
	_ = peakBps
}

// badReturn declares seconds in its name but returns the bits result of
// Volume.
func badReturn(rateBps, horizon float64) (spanDelay float64) {
	return Volume(rateBps, horizon) // want `badReturn returns bits but its result is declared seconds`
}

// conflicted is used both as seconds and as bits; conflicting evidence
// demotes the parameter to Unknown and nothing below is reported.
func conflicted(x, delay, countBits float64) (float64, float64) {
	return x + delay, x + countBits
}

// stillSilent shows the demoted parameter produces no findings.
func stillSilent(x float64) {
	sinkBits := x
	_ = sinkBits
}

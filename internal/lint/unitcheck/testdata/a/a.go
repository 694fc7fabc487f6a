// Package a exercises the unitcheck analyzer: true positives for
// cross-dimension arithmetic and deliberate near-misses that must stay
// silent.
package a

import "math"

func needBits(payloadBits float64) float64 { return payloadBits }

func positives(totalDelay, frameBits, linkRate, peakRate float64) {
	_ = totalDelay + frameBits  // want `cross-dimension addition: seconds \+ bits`
	_ = linkRate * peakRate     // want `suspicious product dimension`
	_ = totalDelay <= frameBits // want `cross-dimension comparison`
	_ = needBits(totalDelay)    // want `argument is seconds but parameter "payloadBits"`

	var queueDelay float64
	queueDelay = frameBits // want `bits value stored in "queueDelay"`
	_ = queueDelay
}

type config struct {
	HopLatency float64
}

func positiveComposite(burstBits float64) config {
	return config{HopLatency: burstBits} // want `bits value stored in "HopLatency"`
}

// hopDelay declares seconds by its name but returns a bit count.
func hopDelay(frameBits float64) float64 {
	return frameBits // want `hopDelay returns bits but its result is declared seconds`
}

// span declares seconds by its result's name.
func span(frameBits, linkRate float64) (gapDelay float64) {
	if linkRate > 0 {
		return frameBits / linkRate // bits/bps is seconds: consistent
	}
	return frameBits // want `span returns bits but its result is declared seconds`
}

func negatives(txDelay, frameBits, linkRate float64, n int) {
	_ = txDelay + frameBits/linkRate // bits/bps is seconds: consistent
	_ = linkRate * txDelay           // bps*seconds is bits: sanctioned
	_ = txDelay * 2                  // scalar scaling preserves the dimension
	_ = frameBits / float64(n)       // unknown divisor: stay silent
	_ = math.Max(txDelay, 0)         // dimension-preserving helper
	total := txDelay + 1e-9          // additive tolerance rides along
	_ = total
	h := 0.004            // terse locals have no declared dimension
	_ = h * frameBits     // unknown operand: stay silent
	_ = txDelay - 2e-3    // literal operands are scalars
	_ = frameBits * 2 / 8 // scalar chain keeps bits
}

// A plural "rotations" counts rotations; the singular names a time.
func rotations(ttrt, frameBits, rotationTime float64) {
	const maxBusyRotations = 4096
	_ = maxBusyRotations * ttrt // a count of rotations times a period: seconds
	var busyRotations float64
	_ = busyRotations * ttrt
	_ = rotationTime + frameBits // want `cross-dimension addition: seconds \+ bits`
	_ = rotationTime * ttrt      // want `suspicious product dimension`
}

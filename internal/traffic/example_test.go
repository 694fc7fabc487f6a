package traffic_test

import (
	"fmt"

	"fafnet/internal/traffic"
)

// The dual-periodic model of Eq. 37: at most C1 bits in any P1 window and
// C2 bits in any P2 window.
func ExampleDualPeriodic() {
	d, err := traffic.NewDualPeriodic(150e3, 0.010, 30e3, 0.001, 100e6)
	if err != nil {
		panic(err)
	}
	fmt.Println(d.Bits(0.001)) // one sub-period: C2
	fmt.Println(d.Bits(0.010)) // one full period: C1
	fmt.Println(d.LongTermRate())
	// Output:
	// 30000
	// 150000
	// 1.5e+07
}

// Γ(I) = Bits(I)/I, the maximum average rate over any window of length I:
// for a constant-bit-rate source, its rate at every I.
func ExampleCBR() {
	d, err := traffic.NewCBR(8e6)
	if err != nil {
		panic(err)
	}
	fmt.Println(d.Bits(0.5) / 0.5)
	// Output:
	// 8e+06
}

// Composing transforms: a server with 2 ms worst-case delay and a 100 Mb/s
// line bounds its output by min(BW·I, A(I+d)).
func ExampleDelayed() {
	src, err := traffic.NewPeriodic(1e5, 0.010, 100e6)
	if err != nil {
		panic(err)
	}
	out, err := traffic.NewDelayed(src, 0.002, 100e6)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Bits(0.008)) // window reaches into the next burst
	// Output:
	// 100000
}

func ExampleQuantized() {
	src, err := traffic.NewCBR(1e6)
	if err != nil {
		panic(err)
	}
	// Frames of 20 kbit payload become 53 cells of 384 payload bits each.
	conv, err := traffic.NewQuantized(src, 20e3, 53*384)
	if err != nil {
		panic(err)
	}
	fmt.Println(conv.Bits(0.010)) // 10 kbit input rounds up to one frame
	// Output:
	// 20352
}

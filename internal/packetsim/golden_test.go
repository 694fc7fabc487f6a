package packetsim

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/shaper"
	"fafnet/internal/topo"
	"fafnet/internal/traffic"
)

// goldenPath holds the simulator's output for the four goldenRuns configs,
// bit for bit. The event calendar, the stage FIFOs and the reassembly keys
// may change shape; the (time, seq) at which every event fires may not.
const goldenPath = "testdata/golden.json"

// goldenConn is one connection's measured output: the Float64bits of its
// worst and mean delay, its sample count, frames delivered and histogram
// counts (under, the histBins buckets, over).
type goldenConn struct {
	ID     string `json:"id"`
	Max    uint64 `json:"max"`
	Mean   uint64 `json:"mean"`
	N      int    `json:"n"`
	Frames int    `json:"frames"`
	Hist   []int  `json:"hist"`
}

type goldenRun struct {
	Name  string       `json:"name"`
	Conns []goldenConn `json:"conns"`
}

// goldenRuns runs the four pinned configs: sources in phase, random phases
// (seed 7), an asynchronous background of 2 frames per TTRT, and one shaped
// connection beside a plain one.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	pairs := [][4]int{{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 0, 0, 2}}
	cfg, conns := admitted(t, pairs)
	shapedCfg, shapedConns := shapedPair(t)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"in-phase", Config{Topology: cfg, Connections: conns, Duration: 1, Seed: 1}},
		{"random-phases", Config{Topology: cfg, Connections: conns, Duration: 1, Seed: 7, RandomPhases: true}},
		{"async-background", Config{Topology: cfg, Connections: conns, Duration: 1, Seed: 1, AsyncBackground: 2}},
		{"shaped", Config{Topology: shapedCfg, Connections: shapedConns, Duration: 1, Seed: 12}},
	}
	var runs []goldenRun
	for _, c := range configs {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		run := goldenRun{Name: c.name}
		for _, pc := range res.PerConn {
			under, over := pc.Hist.OutOfRange()
			hist := []int{under}
			for i := 0; i < histBins; i++ {
				hist = append(hist, pc.Hist.Bucket(i))
			}
			run.Conns = append(run.Conns, goldenConn{
				ID:     pc.ID,
				Max:    math.Float64bits(pc.Delays.Max()),
				Mean:   math.Float64bits(pc.Delays.Mean()),
				N:      pc.Delays.N(),
				Frames: pc.FramesDelivered,
				Hist:   append(hist, over),
			})
		}
		runs = append(runs, run)
	}
	return runs
}

// shapedPair admits a regulated connection ring 0 → ring 1 beside a plain
// one ring 0 → ring 2.
func shapedPair(t *testing.T) (topo.Config, []*core.Connection) {
	t.Helper()
	cfg := topo.Default()
	net, err := topo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewDualPeriodic(50e3, 0.010, 10e3, 0.001, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []core.ConnSpec{
		{ID: "shaped", Src: topo.HostID{Ring: 0, Index: 0}, Dst: topo.HostID{Ring: 1, Index: 0},
			Source: src, Deadline: 0.120, Shape: &shaper.Spec{SigmaBits: 40e3, RhoBps: 6.5e6}},
		{ID: "plain", Src: topo.HostID{Ring: 0, Index: 1}, Dst: topo.HostID{Ring: 2, Index: 0},
			Source: src, Deadline: 0.120},
	} {
		if dec, err := ctl.RequestAdmission(spec); err != nil || !dec.Admitted {
			t.Fatalf("%s admission: %v %v", spec.ID, err, dec.Reason)
		}
	}
	return cfg, ctl.Connections()
}

// TestGoldenPacketLevel pins the simulator's measured output directly, not
// only through calibrate's fingerprint: every delay statistic must be
// bit-equal to the committed record.
func TestGoldenPacketLevel(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenRuns(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from %s:\n got %+v\nwant %+v", want[i].Name, goldenPath, got[i], want[i])
		}
	}
	for _, run := range want {
		for _, c := range run.Conns {
			if c.N == 0 {
				t.Errorf("%s/%s: the golden records no delays", run.Name, c.ID)
			}
		}
	}
}

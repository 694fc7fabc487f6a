package scenario

import (
	"strings"
	"testing"

	"fafnet/internal/core"
	"fafnet/internal/topo"
	"fafnet/internal/units"
)

func TestDefaultScenarioValid(t *testing.T) {
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	if len(s.Actions) != 6 {
		t.Errorf("actions = %d", len(s.Actions))
	}
}

func TestParseRoundTrip(t *testing.T) {
	const doc = `{
		"name": "t",
		"topology": {"numRings": 2, "hostsPerRing": 3, "numSwitches": 1, "linkMbps": 155, "ttrtMillis": 8},
		"cac": {"beta": 0.25, "rule": "fixed-split", "hMinAbsMicros": 100},
		"actions": [
			{"admit": {"id": "a", "srcRing": 0, "srcHost": 0, "dstRing": 1, "dstHost": 0,
			           "deadlineMillis": 80,
			           "source": {"type": "dualPeriodic", "c1Kbit": 40, "p1Millis": 10, "c2Kbit": 8, "p2Millis": 1}}},
			{"release": "a"}
		]
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.TopologyConfig()
	if cfg.NumRings != 2 || cfg.HostsPerRing != 3 || cfg.NumSwitches != 1 {
		t.Errorf("topology = %+v", cfg)
	}
	if cfg.Ring.TTRT != 8e-3 {
		t.Errorf("TTRT = %v", cfg.Ring.TTRT)
	}
	opts, err := s.CACOptions()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.BetaSet || opts.Beta != 0.25 {
		t.Errorf("beta = %v (set %v)", opts.Beta, opts.BetaSet)
	}
	if opts.Rule != core.RuleFixedSplit {
		t.Errorf("rule = %v", opts.Rule)
	}
	if !units.WithinRel(opts.HMinAbs, 100e-6, 1e-9) {
		t.Errorf("HMinAbs = %v", opts.HMinAbs)
	}
	spec, err := s.Actions[0].Admit.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Deadline != 0.08 {
		t.Errorf("deadline = %v", spec.Deadline)
	}
	if spec.Source.LongTermRate() != 4e6 {
		t.Errorf("rho = %v", spec.Source.LongTermRate())
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"unknown field", `{"name":"x","bogus":1,"actions":[{"release":"a"}]}`},
		{"no actions", `{"name":"x","actions":[]}`},
		{"both admit and release", `{"actions":[{"admit":{"id":"a","deadlineMillis":10,"source":{"type":"cbr","rateMbps":1}},"release":"b"}]}`},
		{"neither", `{"actions":[{}]}`},
		{"release unknown", `{"actions":[{"release":"ghost"}]}`},
		{"duplicate id", `{"actions":[
			{"admit":{"id":"a","dstRing":1,"deadlineMillis":10,"source":{"type":"cbr","rateMbps":1}}},
			{"admit":{"id":"a","srcHost":1,"dstRing":1,"deadlineMillis":10,"source":{"type":"cbr","rateMbps":1}}}]}`},
		{"bad source type", `{"actions":[{"admit":{"id":"a","dstRing":1,"deadlineMillis":10,"source":{"type":"warp"}}}]}`},
		{"bad rule", `{"cac":{"rule":"magic"},"actions":[{"admit":{"id":"a","dstRing":1,"deadlineMillis":10,"source":{"type":"cbr","rateMbps":1}}}]}`},
		{"zero deadline", `{"actions":[{"admit":{"id":"a","dstRing":1,"source":{"type":"cbr","rateMbps":1}}}]}`},
		{"link rate overflows to +Inf", `{"topology":{"linkMbps":1e308},"actions":[{"admit":{"id":"a","dstRing":1,"deadlineMillis":10,"source":{"type":"cbr","rateMbps":1}}}]}`},
		{"not json", `nope`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tt.doc)); err == nil {
				t.Errorf("expected error for %s", tt.name)
			}
		})
	}
}

func TestSourceDescriptors(t *testing.T) {
	tests := []struct {
		name    string
		src     Source
		rho     float64
		wantErr bool
	}{
		{"dual periodic", Source{Type: "dualPeriodic", C1Kbit: 50, P1Millis: 10, C2Kbit: 10, P2Millis: 1}, 5e6, false},
		{"periodic", Source{Type: "periodic", C1Kbit: 10, P1Millis: 5}, 2e6, false},
		{"cbr", Source{Type: "cbr", RateMbps: 3}, 3e6, false},
		{"leaky bucket", Source{Type: "leakyBucket", SigmaKbit: 10, RateMbps: 2}, 2e6, false},
		{"custom peak", Source{Type: "periodic", C1Kbit: 10, P1Millis: 5, PeakMbps: 50}, 2e6, false},
		{"unknown", Source{Type: "x"}, 0, true},
		{"invalid params", Source{Type: "periodic", C1Kbit: 0, P1Millis: 5}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := tt.src.Descriptor()
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && d.LongTermRate() != tt.rho {
				t.Errorf("rho = %v, want %v", d.LongTermRate(), tt.rho)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/file.json"); err == nil {
		t.Error("missing file should error")
	}
}

func TestDefaultScenarioRunsThroughCAC(t *testing.T) {
	// The built-in scenario must execute cleanly against a real controller.
	s := Default()
	net, err := topo.NewNetwork(s.TopologyConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.CACOptions()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.NewController(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i, a := range s.Actions {
		if a.Release != "" {
			if !ctl.Release(a.Release) {
				t.Fatalf("action %d: release %q failed", i, a.Release)
			}
			continue
		}
		spec, err := a.Admit.Spec()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ctl.RequestAdmission(spec)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Admitted {
			admitted++
		}
	}
	if admitted < 4 {
		t.Errorf("only %d of 5 requests admitted in the demonstration scenario", admitted)
	}
}

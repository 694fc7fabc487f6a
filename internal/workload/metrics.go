package workload

import "fafnet/internal/obs"

// Per-class metrics use one labeled child per class name, registered by the
// obs vectors the first time a class is seen. The reserved class "overall"
// is registered eagerly so every family exists on /metrics (and in the
// OPERATIONS.md catalog gate) before any workload has run. Class palettes
// are small and recurring — specs name a handful of service classes, not
// unbounded ids — so the child tables stay tiny.

// Overall is the reserved class label carrying the all-classes aggregate.
const Overall = "overall"

var (
	vRequests = obs.Default.CounterVec("fafnet_workload_class_requests_total",
		"Admission requests issued, by workload class.", "class")
	vAdmitted = obs.Default.CounterVec("fafnet_workload_class_admitted_total",
		"Admission requests admitted, by workload class.", "class")
	vAP = obs.Default.GaugeVec("fafnet_workload_class_ap",
		"Admission probability of the most recent run, by workload class.", "class")
	vTightness = obs.Default.GaugeVec("fafnet_workload_class_tightness",
		"Worst measured-delay/analytic-bound ratio of the most recent calibration, by workload class (must stay below 1).", "class")
	overallRequests = vRequests.With(Overall)
	overallAdmitted = vAdmitted.With(Overall)
	_               = vAP.With(Overall)
	_               = vTightness.With(Overall)
	gJain           = obs.Default.Gauge("fafnet_workload_jain_fairness",
		"Jain fairness index over per-class admission probabilities of the most recent run (1 = perfectly fair).")
	mCalScenarios = obs.Default.Counter("fafnet_calibration_scenarios_total",
		"Calibration scenarios executed (admission run plus packet-level cross-check).")
	mCalViolations = obs.Default.Counter("fafnet_calibration_violations_total",
		"Measured delays that exceeded their analytic worst-case bound across calibration runs. Any increment is a correctness failure.")
)

// RecordRequest counts one admission request for the class and the overall
// aggregate.
func RecordRequest(class string) {
	vRequests.With(class).Inc()
	overallRequests.Inc()
}

// RecordAdmission counts one admitted request for the class and the overall
// aggregate.
func RecordAdmission(class string) {
	vAdmitted.With(class).Inc()
	overallAdmitted.Inc()
}

// SetClassAP publishes a class's admission probability from the most recent
// run.
func SetClassAP(class string, ap float64) { vAP.With(class).Set(ap) }

// SetClassTightness publishes a class's worst measured/bound delay ratio
// from the most recent calibration.
func SetClassTightness(class string, ratio float64) { vTightness.With(class).Set(ratio) }

// SetJainFairness publishes the Jain index over per-class APs.
func SetJainFairness(v float64) { gJain.Set(v) }

// AddCalibrationScenarios counts completed calibration scenarios.
func AddCalibrationScenarios(n int) { mCalScenarios.Add(uint64(n)) }

// AddCalibrationViolations counts analytic-bound violations. The calibration
// gate fails hard on any, so a nonzero counter on a live daemon means a
// soundness bug escaped.
func AddCalibrationViolations(n int) { mCalViolations.Add(uint64(n)) }

package fddi

import "fafnet/internal/obs"

// Metric handles for the Theorem 1 analysis. Counters only: AnalyzeMAC runs
// inside CAC probes at very high rates, so per-call spans would dominate
// the instrumentation budget, while atomic increments are free against an
// envelope search.
var (
	mMACAnalyses = obs.Default.Counter("fafnet_fddi_mac_analyses_total",
		"Theorem 1 MAC analyses run (cache misses reach here; hits do not).")
	mMACInfeasible = obs.Default.Counter("fafnet_fddi_mac_infeasible_total",
		"MAC analyses that found no finite delay bound (overload, buffer overflow, or no convergence).")
	mMACEnvelopeEvals = obs.Default.Counter("fafnet_fddi_mac_envelope_evals_total",
		"Input-envelope evaluations (Bits calls) by the Theorem 1 busy-interval, level and rotation searches, bisection steps included (the dominant cost driver).")
)

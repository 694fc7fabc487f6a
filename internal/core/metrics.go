package core

import "fafnet/internal/obs"

// CacheStats counts the analyzer's cross-evaluation cache traffic: lookups
// of a class record's entry for the probed sender allocation, which
// holds the sender-MAC result and the stage-0 envelope. The Analyzer
// accumulates totals over its lifetime; Decision carries the per-decision
// difference so an audit record shows what each admission cost.
// Per-evaluation memo hits are not counted — they are scratch state, not the
// caches whose effectiveness PR-3 rests on.
type CacheStats struct {
	// Stage0Hits and Stage0Misses count lookups for the stage-0 envelope: a
	// hit is an entry whose envelope has been built.
	Stage0Hits, Stage0Misses uint64
	// MACHits and MACMisses count lookups for the sender-MAC result.
	MACHits, MACMisses uint64
}

// Sub returns the element-wise difference s − o. Use it to turn two
// snapshots of Analyzer.CacheStats into the traffic of one decision.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		Stage0Hits:   s.Stage0Hits - o.Stage0Hits,
		Stage0Misses: s.Stage0Misses - o.Stage0Misses,
		MACHits:      s.MACHits - o.MACHits,
		MACMisses:    s.MACMisses - o.MACMisses,
	}
}

// Process-wide metric handles. Incrementing an atomic counter costs a few
// nanoseconds against probes that cost microseconds to milliseconds, so the
// hot paths update these unconditionally.
var (
	mAdmitted = obs.Default.Counter("fafnet_cac_decisions_total",
		"CAC admission decisions by outcome.", "outcome", "admitted")
	mRejected = obs.Default.Counter("fafnet_cac_decisions_total",
		"CAC admission decisions by outcome.", "outcome", "rejected")
	mDecisionErrors = obs.Default.Counter("fafnet_cac_decision_errors_total",
		"Admission requests that failed with an error before reaching a decision.")
	mDecideSeconds = obs.Default.Histogram("fafnet_cac_decide_seconds",
		"Wall time of one full CAC decision (probe session setup plus every bisection probe).",
		obs.LatencyBuckets())
	mProbes = obs.Default.Counter("fafnet_cac_probes_total",
		"Feasibility probes asked for across all decisions (the bisection probes stop at their verdict; see fafnet_cac_probe_cutoffs_total).")
	mBisectSteps = obs.Default.Counter("fafnet_cac_bisect_steps_total",
		"Binary-search iterations across the feasibility and equal-delay searches.")
	// Where a verdict-only bisection probe stopped with the answer "no": the
	// last server analysed for the candidate, or another connection.
	mProbeCutoffs = [...]*obs.Counter{
		cutSrcMAC: probeCutoffs("src_mac"),
		cutPort:   probeCutoffs("port"),
		cutDstMAC: probeCutoffs("dst_mac"),
		cutOther:  probeCutoffs("other_connection"),
	}
	mProbeBoundHolds = obs.Default.Counter("fafnet_cac_probe_bound_holds_total",
		"Last-server MAC analyses of bisection probes answered by the closed-form Theorem 1 bound (chi <= (sigma/svc + 2)·TTRT) instead of a grid scan: the bound, in the server's place, kept the connection's delay sum within its deadline.")
	mReleases = obs.Default.Counter("fafnet_cac_releases_total",
		"Connections released (admitted connections torn down).")
	mBookkeepingErrors = obs.Default.Counter("fafnet_cac_bookkeeping_errors_total",
		"Commits refused because the decided allocation was not positive or would have broken a ring's protocol constraint (sum of H <= TTRT - overhead) on the snapshot it was decided against; nothing was published. Must stay 0.")
	gActive = obs.Default.Gauge("fafnet_cac_active_connections",
		"Currently admitted connections.")

	mCacheStage0Hits = obs.Default.Counter("fafnet_cac_cache_stage0_hits_total",
		"Stage-0 envelope cache lookups served from cache.")
	mCacheStage0Misses = obs.Default.Counter("fafnet_cac_cache_stage0_misses_total",
		"Stage-0 envelope cache lookups that rebuilt the envelope.")
	mCacheMACHits = obs.Default.Counter("fafnet_cac_cache_mac_hits_total",
		"Sender-MAC cache lookups served from cache.")
	mCacheMACMisses = obs.Default.Counter("fafnet_cac_cache_mac_misses_total",
		"Sender-MAC cache lookups that ran the Theorem 1 analysis.")

	mVerdictHits = obs.Default.Counter("fafnet_cac_verdict_cache_hits_total",
		"Admission decisions answered from the verdict cache without running any probe.")
	mVerdictMisses = obs.Default.Counter("fafnet_cac_verdict_cache_misses_total",
		"Admission decisions that ran the full probe-based analysis and seeded the verdict cache.")
	mVerdictSkips = obs.Default.Counter("fafnet_cac_verdict_cache_skips_total",
		"Admission decisions that bypassed the verdict cache (unfingerprintable spec or admitted set).")

	mShardCommits = obs.Default.Counter("fafnet_shard_commits_total",
		"Admissions committed: each published a new admitted-state snapshot.")
	gShardUtilMax = obs.Default.Gauge("fafnet_shard_allocated_fraction_max",
		"Highest committed synchronous-bandwidth fraction across the rings, read from the published snapshot.")
	gShardImbalance = obs.Default.Gauge("fafnet_shard_imbalance",
		"Spread between the most and least loaded rings (allocated-fraction max minus min).")

	mFlatLowerings = obs.Default.Counter("fafnet_cac_flat_lowerings_total",
		"Descriptor chains lowered into flat breakpoint arrays: stage-0 envelopes and receiver-side conversions. A port's output is a view of its input and lowers nothing.")
	mFlatAggRebuilds = obs.Default.Counter("fafnet_cac_flat_agg_rebuilds_total",
		"Per-port aggregate envelopes summed from their member flats: one per FIFO-port analysis, whether the members were summed only as far as the busy period reaches or whole.")
)

func probeCutoffs(at string) *obs.Counter {
	return obs.Default.Counter("fafnet_cac_probe_cutoffs_total",
		"Bisection probes answered \"no\" before the whole network was evaluated, by where the probe stopped: the candidate's sender MAC, a shared port on its route, its receiver MAC (where its delay sum is complete, or, before any analysis, where the allocation cannot sustain the rate entering it), or a standing connection.",
		"at", at)
}

package federate

import (
	"mdm/internal/obs"
)

// Federation metrics, process-wide. The source-cache family also exists
// per instance (Cache.Stats) so tests can assert on one engine in
// isolation; breaker transitions exist only here.
var (
	obsScatters = obs.Default.NewCounter("mdm_federate_scatters_total",
		"Scatter phases executed (one per federated query).")
	obsScatterFanout = obs.Default.NewHistogram("mdm_federate_scatter_fanout_sources",
		"Distinct sources fetched per scatter phase.",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	obsScatterDur = obs.Default.NewHistogram("mdm_federate_scatter_duration_seconds",
		"Wall time of the scatter phase (all source fetches).", obs.DefBuckets)

	obsFetchAttempts = obs.Default.NewCounterVec("mdm_federate_fetch_attempts_total",
		"Source fetch attempts by outcome: ok, or the error class "+
			"(timeout, network, http_5xx, rate_limited, http_4xx, "+
			"payload_too_large, schema, breaker_open, canceled, error).", "outcome")
	obsFetchOK = obsFetchAttempts.With("ok")

	obsRetries = obs.Default.NewCounter("mdm_federate_retries_total",
		"Fetch attempts beyond the first (the retry ladder's extra rungs).")

	obsPartialDegradations = obs.Default.NewCounter("mdm_federate_partial_degradations_total",
		"Queries answered degraded: at least one source missing.")

	// obsMissing counts Cursor.Missing() entries per (source, class) —
	// previously these were visible only in response bodies. The
	// registry's cardinality cap bounds hostile source-name growth.
	obsMissing = obs.Default.NewCounterVec("mdm_federate_missing_total",
		"Sources missing from partial results, by source and error class.",
		"source", "class")

	obsCacheMisses = obs.Default.NewCounter("mdm_federate_source_cache_misses_total",
		"Source-cache Gets that started a fetch.")
	obsCacheShared = obs.Default.NewCounter("mdm_federate_source_cache_inflight_dedup_total",
		"Source-cache Gets deduplicated onto an in-flight fill.")

	obsBreakerOpened = obs.Default.NewCounter("mdm_federate_breaker_opened_total",
		"Circuit-breaker open transitions.")
	obsBreakerHalfOpened = obs.Default.NewCounter("mdm_federate_breaker_half_opened_total",
		"Circuit-breaker half-open transitions.")
	obsBreakerClosed = obs.Default.NewCounter("mdm_federate_breaker_closed_total",
		"Circuit-breaker close transitions.")
	obsBreakerFastFails = obs.Default.NewCounter("mdm_federate_breaker_fast_fails_total",
		"Fetches suppressed by an open breaker.")
	// obsBreakerState is last-writer-wins when two BreakerSets in one
	// process track the same source name; mdmd runs exactly one set.
	obsBreakerState = obs.Default.NewGaugeVec("mdm_federate_breaker_state",
		"Circuit-breaker position per source: 0 closed, 1 open, 2 half-open.", "source")
)

package obs

// Canonical span names of the sequential analysis pipeline. Every
// stage span emitted anywhere in the repository must be declared here
// (or carry one of the declared prefixes below); the name-drift test
// in names_drift_test.go enforces it, and the telemetry layer keys its
// per-stage latency histograms on exactly this vocabulary.
const (
	// SpanParse wraps the mini-Fortran frontend.
	SpanParse = "parse"
	// SpanCFGBuild wraps control-flow-graph construction.
	SpanCFGBuild = "cfg-build"
	// SpanIntervalReduce wraps the interval (loop-forest) reduction.
	SpanIntervalReduce = "interval-reduce"
	// SpanSectionUniverse wraps array-section universe collection.
	SpanSectionUniverse = "section-universe"
	// SpanSolveRead / SpanSolveWrite wrap the two dataflow solves;
	// SpanReverseGraph wraps the graph reversal the WRITE solve needs.
	SpanSolveRead    = "solve-read"
	SpanSolveWrite   = "solve-write"
	SpanReverseGraph = "reverse-graph"
	// SpanAtomicFallback wraps the ladder's rung-3 placement.
	SpanAtomicFallback = "atomic-fallback"
	// SpanCheck wraps the static placement verification.
	SpanCheck = "check"
	// SpanExecute wraps one interpreter run (the default when
	// interp.Config.SpanName is empty).
	SpanExecute = "execute"

	// SpanPrefixPlacement / SpanPrefixExecute are the declared dynamic
	// prefixes: "placement:<variant>" annotation spans and
	// "execute:<variant>" interpreter spans.
	SpanPrefixPlacement = "placement:"
	SpanPrefixExecute   = "execute:"
)

// Canonical span names of the concurrent analysis engine
// (internal/engine). They live here, next to the analysis's own span
// names, so every consumer of a Report or trace matches on one
// vocabulary instead of scattered string literals.
const (
	// SpanEngineAnalyze wraps one engine.Analyze call: its wait for one
	// of the engine's slots, then cfg-build → interval-reduce →
	// section-universe → {solve-read ∥ solve-write} → check on that
	// slot. Its interval contains those comm stage spans, and the
	// concurrent READ and WRITE solve spans can overlap each other.
	SpanEngineAnalyze = "engine.analyze"
)

// Canonical span names of the durable result journal (internal/journal)
// and its replay path.
const (
	// SpanJournalFlush wraps one group commit: encode the pending
	// batch, append it to the current segment, fsync (seal).
	SpanJournalFlush = "journal.flush"
	// SpanJournalReplay wraps one startup replay pass over the
	// journal's segments.
	SpanJournalReplay = "journal.replay"
)

// Canonical time-series metric names exported on /metrics by
// internal/telemetry, in Prometheus exposition naming style. The
// telemetry registry refuses to create a metric family whose name is
// not declared here, so the scrape vocabulary cannot drift from this
// file.
const (
	// MetricRequestsTotal counts HTTP requests by (route, status).
	MetricRequestsTotal = "gnt_http_requests_total"
	// MetricRequestDuration is the request-latency histogram by
	// (route, rung, cache, status).
	MetricRequestDuration = "gnt_http_request_duration_seconds"
	// MetricInFlight gauges requests currently holding analysis slots.
	MetricInFlight = "gnt_http_in_flight_requests"
	// MetricReady gauges startup-replay readiness (0 warming, 1 ready).
	MetricReady = "gnt_ready"

	// MetricAdmissionTotal counts admission outcomes by
	// (outcome: won|shed); MetricAdmissionWait is the queue-wait
	// histogram by the same label.
	MetricAdmissionTotal = "gnt_admission_total"
	MetricAdmissionWait  = "gnt_admission_queue_wait_seconds"

	// MetricLadderAttempts counts degradation-ladder attempts by
	// (rung, outcome).
	MetricLadderAttempts = "gnt_ladder_attempts_total"

	// MetricStageDuration is the per-stage wall-time histogram by
	// (stage), bridged from the span vocabulary above.
	MetricStageDuration = "gnt_stage_duration_seconds"

	// Engine workers, stage panics and result cache.
	MetricPoolPanics   = "gnt_engine_pool_panics_total"
	MetricPoolWorkers  = "gnt_engine_pool_workers"
	MetricCacheEvents  = "gnt_engine_cache_events_total" // by (event: hit|miss|follow|evict)
	MetricCacheEntries = "gnt_engine_cache_entries"
	MetricCacheBytes   = "gnt_engine_cache_bytes"

	// Durable journal.
	MetricJournalAppended      = "gnt_journal_appended_total"
	MetricJournalSealedBatches = "gnt_journal_sealed_batches_total"
	MetricJournalSealedRecords = "gnt_journal_sealed_records_total"
	MetricJournalReplayed      = "gnt_journal_replayed_records_total"
	MetricJournalCorrupt       = "gnt_journal_corrupt_total" // by (kind: batch|record)
	MetricJournalTornTails     = "gnt_journal_torn_tails_total"
	MetricJournalPending       = "gnt_journal_pending_records"

	// Engine stages. MetricPipelineItems counts programs serviced per
	// stage by (stage); MetricPipelineShed counts Analyze calls whose
	// context died while they waited for an engine slot or at a stage
	// boundary. The gauges are sampled live at scrape time by (stage):
	// occupancy is the programs inside each stage, and queue depth is
	// the calls waiting for a slot, reported on cfg-build (0 on every
	// other stage). Occupancy reads as a utilization ratio against
	// MetricPoolWorkers, the slot count every stage shares.
	MetricPipelineItems      = "gnt_pipeline_items_total"
	MetricPipelineShed       = "gnt_pipeline_shed_total"
	MetricPipelineQueueDepth = "gnt_pipeline_queue_depth"
	MetricPipelineOccupancy  = "gnt_pipeline_occupancy"

	// Cluster router (internal/cluster). The router fronts N serve
	// nodes; its families account for every forwarded attempt, every
	// failover down a key's replica set, and every hedged request, so
	// the failover soak's availability claim is checkable from /metrics
	// alone.

	// MetricRouteRequests counts routed requests by (route, status);
	// MetricRouteDuration is the end-to-end router latency histogram by
	// the same labels.
	MetricRouteRequests = "gnt_route_requests_total"
	MetricRouteDuration = "gnt_route_request_duration_seconds"
	// MetricRouteAttempts counts individual forwarded attempts by
	// (node, outcome: ok|shed|connect|timeout|status-5xx).
	MetricRouteAttempts = "gnt_route_attempts_total"
	// MetricRouteFailovers counts descents down a replica set by
	// (reason: connect|timeout|status-5xx|shed).
	MetricRouteFailovers = "gnt_route_failovers_total"
	// MetricRouteHedges counts hedged second requests by
	// (outcome: launched|won|lost).
	MetricRouteHedges = "gnt_route_hedges_total"
	// MetricRouteProbes counts health-probe outcomes by
	// (node, result: ok|fail|draining|warming).
	MetricRouteProbes = "gnt_route_probes_total"
	// MetricRouteNodeState gauges each node's breaker state by (node):
	// 0 open, 1 half-open, 2 closed; minus 0.5 while the node reports
	// draining or warming (politely unavailable).
	MetricRouteNodeState = "gnt_route_node_state"
	// MetricRouteHedgeDelay gauges the current hedge trigger delay in
	// seconds (rolling p99 of successful attempts, clamped).
	MetricRouteHedgeDelay = "gnt_route_hedge_delay_seconds"
)

// Spans returns the declared exact span names.
func Spans() []string {
	return []string{
		SpanParse, SpanCFGBuild, SpanIntervalReduce, SpanSectionUniverse,
		SpanSolveRead, SpanSolveWrite, SpanReverseGraph, SpanAtomicFallback,
		SpanCheck, SpanExecute,
		SpanEngineAnalyze,
		SpanJournalFlush, SpanJournalReplay,
	}
}

// SpanPrefixes returns the declared dynamic span-name prefixes.
func SpanPrefixes() []string {
	return []string{SpanPrefixPlacement, SpanPrefixExecute}
}

// Metrics returns the declared /metrics family names.
func Metrics() []string {
	return []string{
		MetricRequestsTotal, MetricRequestDuration, MetricInFlight, MetricReady,
		MetricAdmissionTotal, MetricAdmissionWait, MetricLadderAttempts,
		MetricStageDuration,
		MetricPoolPanics, MetricPoolWorkers,
		MetricCacheEvents, MetricCacheEntries, MetricCacheBytes,
		MetricJournalAppended, MetricJournalSealedBatches, MetricJournalSealedRecords,
		MetricJournalReplayed, MetricJournalCorrupt, MetricJournalTornTails,
		MetricJournalPending,
		MetricPipelineItems, MetricPipelineShed, MetricPipelineQueueDepth,
		MetricPipelineOccupancy,
		MetricRouteRequests, MetricRouteDuration, MetricRouteAttempts,
		MetricRouteFailovers, MetricRouteHedges, MetricRouteProbes,
		MetricRouteNodeState, MetricRouteHedgeDelay,
	}
}

// KnownSpan reports whether name is a declared span name or carries a
// declared dynamic prefix.
func KnownSpan(name string) bool {
	for _, s := range Spans() {
		if name == s {
			return true
		}
	}
	for _, p := range SpanPrefixes() {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// KnownMetric reports whether name is a declared metric family name.
func KnownMetric(name string) bool {
	for _, m := range Metrics() {
		if name == m {
			return true
		}
	}
	return false
}

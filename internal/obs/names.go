package obs

// Canonical metric and journal-event names. Every instrument the
// instrumented packages (internal/core, internal/bitcoin,
// internal/netsim, internal/query, the cmds) register at runtime, and
// every journal event type they append, is named by one of these
// constants. Hoisting the strings here removes drift risk — a rename
// in one package cannot silently orphan a dashboard panel, an SLO
// expression, or a journal query elsewhere — and names_test.go asserts
// that everything actually registered appears in the tables below.
const (
	// DCSat check pipeline (internal/core).
	MetricChecks            = "dcsat_checks_total"
	MetricViolations        = "dcsat_violations_total"
	MetricPrechecked        = "dcsat_prechecked_total"
	MetricCliques           = "dcsat_cliques_total"
	MetricWorlds            = "dcsat_worlds_total"
	MetricWorldsIncremental = "dcsat_worlds_incremental"
	MetricWorldsRebuilt     = "dcsat_worlds_rebuilt"
	MetricReuseDepth        = "dcsat_reuse_depth"
	MetricUndecided         = "dcsat_undecided_total"
	MetricCacheHits         = "dcsat_cache_hits_total"
	MetricCacheMisses       = "dcsat_cache_misses_total"
	MetricCacheInvalidated  = "dcsat_cache_invalidated_total"
	MetricCheckNS           = "dcsat_check_ns"
	MetricPrecheckNS        = "dcsat_precheck_ns"
	MetricLiveFilterNS      = "dcsat_live_filter_ns"
	MetricComponentSplitNS  = "dcsat_component_split_ns"
	MetricFDGraphBuildNS    = "dcsat_fd_graph_build_ns"
	MetricCliqueEnumNS      = "dcsat_clique_enum_ns"
	MetricWorldEvalNS       = "dcsat_world_eval_ns"
	MetricChecksBy          = "dcsat_checks_by"
	MetricChecksByClass     = "dcsat_checks_by_class"
	MetricCheckNSBy         = "dcsat_check_ns_by"
	MetricInflightChecks    = "dcsat_inflight_checks"
	MetricPoolBusy          = "dcsat_pool_workers_busy"
	MetricPoolUtilization   = "dcsat_pool_utilization_permille"
	MetricPoolSaturation    = "dcsat_pool_saturation_permille"

	// Monitor persistent graphs and the sweep selector of the verdict
	// store (internal/core monitor.go / verdicts.go).
	MetricCommitRefreshes = "monitor_commit_refreshes_total"
	MetricSweepRebuilds   = "dcsat_sweep_rebuilds_total"
	MetricSweepReplayed   = "dcsat_sweep_replayed_total"
	MetricSweepRecomputed = "dcsat_sweep_recomputed_total"
	MetricMonitorComps    = "monitor_components"
	MetricMonitorConflict = "monitor_conflict_pairs"

	// Query evaluation engine (internal/query).
	MetricQueryEvals         = "query_evals_total"
	MetricQueryIndexLookups  = "query_index_lookups_total"
	MetricQueryScans         = "query_scans_total"
	MetricQueryTuplesProbed  = "query_tuples_probed_total"
	MetricQueryCompileNS     = "query_compile_ns"
	MetricQueryPlanCacheHits = "query_plan_cache_hits"
	MetricQueryPlanCacheMiss = "query_plan_cache_misses"

	// Bitcoin node simulation (internal/bitcoin).
	MetricMempoolAccept         = "bitcoin_mempool_accept_total"
	MetricMempoolRejectConflict = "bitcoin_mempool_reject_conflict_total"
	MetricMempoolRejectOrphan   = "bitcoin_mempool_reject_orphan_total"
	MetricMempoolRejectInvalid  = "bitcoin_mempool_reject_invalid_total"
	MetricMempoolEvict          = "bitcoin_mempool_evict_total"
	MetricMempoolRBF            = "bitcoin_mempool_rbf_total"
	MetricMempoolSize           = "bitcoin_mempool_size"
	MetricUTXOOutputs           = "bitcoin_utxo_outputs"
	MetricBlockAssemblyNS       = "bitcoin_block_assembly_ns"

	// Network simulation (internal/netsim).
	MetricGossipTx       = "netsim_gossip_tx_total"
	MetricGossipBlock    = "netsim_gossip_block_total"
	MetricLinkDelayTicks = "netsim_link_delay_ticks"

	// Commands and the obs layer itself.
	MetricChainHeight    = "bcnode_chain_height"
	MetricJournalDropped = "obs_journal_dropped_total"

	// Per-principal cost attribution and admission control (attrib.go,
	// admit.go).
	MetricAttribCostUnits = "obs_attrib_cost_units_total"
	MetricAttribChecks    = "obs_attrib_checks_total"
	MetricAttribEvictions = "obs_attrib_evictions_total"
	MetricAttribTracked   = "obs_attrib_tracked_principals"
	MetricAdmitDecisions  = "obs_admit_decisions_total"

	// Serving daemon (dcsatd/server).
	MetricServedChecks   = "dcsatd_checks_served_total"
	MetricServedRejects  = "dcsatd_rejected_total"
	MetricServedDeltaOps = "dcsatd_delta_ops_total"
	MetricServedTenants  = "dcsatd_tenants"
	MetricServedInflight = "dcsatd_inflight_requests"
	MetricServedCheckNS  = "dcsatd_check_ns"
)

// Journal event types.
const (
	EvCheckStart      = "check_start"
	EvCheckFinish     = "check_finish"
	EvCheckUndecided  = "check_undecided"
	EvStage           = "stage"
	EvCachedComponent = "check_cached_component"

	EvMonitorAdd            = "monitor_add"
	EvMonitorDrop           = "monitor_drop"
	EvMonitorCommit         = "monitor_commit"
	EvMonitorCommitExternal = "monitor_commit_external"
	EvMonitorCacheClear     = "monitor_cache_clear"

	EvMempoolAccept = "mempool_accept"
	EvMempoolReject = "mempool_reject"
	EvMempoolEvict  = "mempool_evict"
	EvMinerBlock    = "miner_block"

	EvGossipSend = "gossip_send"
	EvGossipRecv = "gossip_recv"

	EvDatasetGenerated = "dataset_generated"

	// Attribution and admission (attrib.go, admit.go).
	EvAttribOverflow = "attrib_overflow"
	EvAdmitDecision  = "admit_decision"

	// Serving daemon (dcsatd/server).
	EvTenantRegister   = "tenant_register"
	EvTenantDeregister = "tenant_deregister"
	EvServerDrain      = "server_drain"
	EvServerPanic      = "server_panic"
)

// knownMetricNames lists every canonical metric name. names_test.go
// checks this table against what the instrumented packages actually
// register into Default.
var knownMetricNames = []string{
	MetricChecks, MetricViolations, MetricPrechecked, MetricCliques,
	MetricWorlds, MetricWorldsIncremental, MetricWorldsRebuilt,
	MetricReuseDepth, MetricUndecided, MetricCacheHits, MetricCacheMisses,
	MetricCacheInvalidated, MetricCheckNS, MetricPrecheckNS,
	MetricLiveFilterNS, MetricComponentSplitNS, MetricFDGraphBuildNS,
	MetricCliqueEnumNS, MetricWorldEvalNS, MetricChecksBy,
	MetricChecksByClass, MetricCheckNSBy, MetricInflightChecks,
	MetricPoolBusy, MetricPoolUtilization, MetricPoolSaturation,
	MetricCommitRefreshes, MetricSweepRebuilds, MetricSweepReplayed,
	MetricSweepRecomputed, MetricMonitorComps, MetricMonitorConflict,
	MetricQueryEvals, MetricQueryIndexLookups, MetricQueryScans,
	MetricQueryTuplesProbed, MetricQueryCompileNS,
	MetricQueryPlanCacheHits, MetricQueryPlanCacheMiss,
	MetricMempoolAccept, MetricMempoolRejectConflict,
	MetricMempoolRejectOrphan, MetricMempoolRejectInvalid,
	MetricMempoolEvict, MetricMempoolRBF, MetricMempoolSize,
	MetricUTXOOutputs, MetricBlockAssemblyNS,
	MetricGossipTx, MetricGossipBlock, MetricLinkDelayTicks,
	MetricChainHeight, MetricJournalDropped,
	MetricAttribCostUnits, MetricAttribChecks, MetricAttribEvictions,
	MetricAttribTracked, MetricAdmitDecisions,
	MetricServedChecks, MetricServedRejects, MetricServedDeltaOps,
	MetricServedTenants, MetricServedInflight, MetricServedCheckNS,
}

// knownEventNames lists every canonical journal event type.
var knownEventNames = []string{
	EvCheckStart, EvCheckFinish, EvCheckUndecided, EvStage,
	EvCachedComponent, EvMonitorAdd, EvMonitorDrop, EvMonitorCommit,
	EvMonitorCommitExternal, EvMonitorCacheClear, EvMempoolAccept,
	EvMempoolReject, EvMempoolEvict, EvMinerBlock, EvGossipSend,
	EvGossipRecv, EvDatasetGenerated, EvAttribOverflow, EvAdmitDecision,
	EvTenantRegister, EvTenantDeregister, EvServerDrain, EvServerPanic,
}

// KnownMetricNames returns the canonical metric-name table as a set.
func KnownMetricNames() map[string]bool {
	out := make(map[string]bool, len(knownMetricNames))
	for _, n := range knownMetricNames {
		out[n] = true
	}
	return out
}

// KnownEventNames returns the canonical journal-event table as a set.
func KnownEventNames() map[string]bool {
	out := make(map[string]bool, len(knownEventNames))
	for _, n := range knownEventNames {
		out[n] = true
	}
	return out
}

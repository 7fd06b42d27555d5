package core

import (
	"fmt"
	"strings"
	"time"

	"blockchaindb/internal/obs"
)

// Registry instruments for the DCSat pipeline. Counters are process
// lifetime aggregates across every Check invocation; the per-stage
// histograms record nanoseconds, so a /metrics scrape shows where time
// goes without tracing individual checks. The labeled families break
// the same totals down by algorithm, verdict, and constraint class —
// the dimensions along which the paper's cost model predicts skew.
// The check-rate counters and latency histograms are *windowed*
// (obs.DefaultWindows): each write also lands in a per-tick ring, so
// /debug/timeseries and the SLO engine see rates and rolling
// percentiles over the last 10s/1m/5m, not just lifetime totals. The
// cumulative twins keep their names on /metrics.
var (
	mChecks     = obs.DefaultWindows.Counter(obs.MetricChecks, "denial-constraint checks executed (including undecided)")
	mViolations = obs.DefaultWindows.Counter(obs.MetricViolations, "checks that found a violating possible world")
	mPrechecked = obs.DefaultWindows.Counter(obs.MetricPrechecked, "checks decided by the monotone pre-check alone")
	mCliques    = obs.DefaultWindows.Counter(obs.MetricCliques, "maximal cliques enumerated")
	mWorlds     = obs.DefaultWindows.Counter(obs.MetricWorlds, "possible worlds the query was evaluated on")
	mUndecided  = obs.DefaultWindows.Counter(obs.MetricUndecided, "checks cut short by a deadline or cancellation before reaching a verdict")

	// Incremental world maintenance along the Bron–Kerbosch recursion.
	// The counters split world evaluations by how the world was obtained;
	// the histogram records the recursion depth at which each in-place
	// extension happened — deeper means more shared prefix work per world.
	mWorldsIncremental = obs.DefaultWindows.Counter(obs.MetricWorldsIncremental, "worlds extended in place along the clique tree (delta re-probe)")
	mWorldsRebuilt     = obs.DefaultWindows.Counter(obs.MetricWorldsRebuilt, "worlds materialized from scratch (one per clique-tree root)")
	hReuseDepth        = obs.DefaultWindows.Histogram(obs.MetricReuseDepth, "clique-tree depth of each incremental world extension")

	// Verdict store (Monitor-owned; see verdicts.go). Windowed so "hit
	// rate over the last minute" is computable.
	mCacheHits        = obs.DefaultWindows.Counter(obs.MetricCacheHits, "components answered from a split verdict table")
	mCacheMisses      = obs.DefaultWindows.Counter(obs.MetricCacheMisses, "components searched because the split verdict table missed")
	mCacheInvalidated = obs.DefaultWindows.Counter(obs.MetricCacheInvalidated, "stored verdicts dropped (commit clear, table eviction, or component gone)")

	// Persistent monitor graphs and the sweep selector
	// (monitor.go / verdicts.go). The gauges track the maintained
	// structures' current shape; the counters measure how much work the
	// O(delta) warm path actually avoided.
	mCommitRefreshes = obs.DefaultWindows.Counter(obs.MetricCommitRefreshes, "pending transactions re-validated by the targeted post-commit refresh")
	mSweepRebuilds   = obs.DefaultWindows.Counter(obs.MetricSweepRebuilds, "sweep tables rebuilt from scratch (cold query or trimmed journal)")
	mSweepReplayed   = obs.DefaultWindows.Counter(obs.MetricSweepReplayed, "component verdicts replayed unchanged by the delta sweep")
	mSweepRecomputed = obs.DefaultWindows.Counter(obs.MetricSweepRecomputed, "component verdicts recomputed by the delta sweep")

	gMonitorComponents = obs.Default.Gauge(obs.MetricMonitorComps, "connected components of the maintained ind-q partition")
	gMonitorConflicts  = obs.Default.Gauge(obs.MetricMonitorConflict, "maintained fd-conflict pairs among pending transactions")

	hCheck      = obs.DefaultWindows.Histogram(obs.MetricCheckNS, "end-to-end check latency (undecided checks record their cut-short wall time)")
	hPrecheck   = obs.DefaultWindows.Histogram(obs.MetricPrecheckNS, "monotone pre-check stage latency")
	hLiveFilter = obs.DefaultWindows.Histogram(obs.MetricLiveFilterNS, "fd-liveness filter stage latency")
	hClosure    = obs.DefaultWindows.Histogram(obs.MetricComponentSplitNS, "ind-q component split + state-bridge closure latency")
	hGraph      = obs.DefaultWindows.Histogram(obs.MetricFDGraphBuildNS, "fd-transaction graph build time per check")
	hClique     = obs.DefaultWindows.Histogram(obs.MetricCliqueEnumNS, "Bron-Kerbosch enumeration time per check (excl. evaluation)")
	hEval       = obs.DefaultWindows.Histogram(obs.MetricWorldEvalNS, "per-world evaluation time per check")

	// Labeled families: where the aggregates above hide skew, these
	// expose it per Prometheus scrape.
	vChecksBy = obs.Default.CounterVec(obs.MetricChecksBy,
		"checks by algorithm and verdict (satisfied/violated/undecided)", "algorithm", "verdict")
	vChecksByClass = obs.Default.CounterVec(obs.MetricChecksByClass,
		"checks by the Theorems 1-2 data-complexity class of (query, constraints)", "class")
	vCheckNsBy = obs.Default.HistogramVec(obs.MetricCheckNSBy,
		"end-to-end check latency by algorithm", "algorithm")

	// In-flight and pool instruments. The inflight gauge is decremented
	// on every exit path (defer), including panics and cancellations.
	// The saturation histogram windows the same permille the gauge
	// holds, turning a last-writer-wins point sample into a trend.
	gInflight = obs.Default.Gauge(obs.MetricInflightChecks, "checks currently executing")
	gPoolBusy = obs.Default.Gauge(obs.MetricPoolBusy, "parallel search workers currently running")
	gPoolUtil = obs.Default.Gauge(obs.MetricPoolUtilization,
		"busy-time/(wall*workers) of the most recent parallel search, in permille")
	hPoolSat = obs.DefaultWindows.Histogram(obs.MetricPoolSaturation,
		"pool utilization permille per parallel search (windowed trend of the gauge)")
)

// Verdict strings for the labeled families and journal events.
const (
	verdictSatisfied = "satisfied"
	verdictViolated  = "violated"
	verdictUndecided = obs.VerdictUndecided
)

// verdictOf names a decided result's outcome.
func verdictOf(res *Result) string {
	if res.Satisfied {
		return verdictSatisfied
	}
	return verdictViolated
}

// recordCheckMetrics publishes one finished Check — decided or cut
// short — into the default registry. Undecided checks record their
// partial stage durations and wall time too, so deadline pressure is
// visible in the latency percentiles rather than vanishing from them.
func recordCheckMetrics(res *Result, verdict string) {
	st := &res.Stats
	mChecks.Inc()
	switch verdict {
	case verdictViolated:
		mViolations.Inc()
	case verdictUndecided:
		mUndecided.Inc()
	}
	if st.Prechecked {
		mPrechecked.Inc()
	}
	mCliques.Add(int64(st.Cliques))
	mWorlds.Add(int64(st.WorldsEvaluated))
	mWorldsIncremental.Add(int64(st.WorldsIncremental))
	mWorldsRebuilt.Add(int64(st.WorldsRebuilt))
	hCheck.ObserveDuration(st.Duration)
	if st.PrecheckDur > 0 {
		hPrecheck.ObserveDuration(st.PrecheckDur)
	}
	if st.LiveFilterDur > 0 {
		hLiveFilter.ObserveDuration(st.LiveFilterDur)
	}
	if st.ClosureDur > 0 {
		hClosure.ObserveDuration(st.ClosureDur)
	}
	if st.GraphBuildDur > 0 {
		hGraph.ObserveDuration(st.GraphBuildDur)
	}
	if st.CliqueDur > 0 {
		hClique.ObserveDuration(st.CliqueDur)
	}
	if st.EvalDur > 0 {
		hEval.ObserveDuration(st.EvalDur)
	}
	algo := st.Algorithm.String()
	vChecksBy.With(algo, verdict).Inc()
	vCheckNsBy.With(algo).ObserveDuration(st.Duration)
}

// journalCheckEvents appends one check's flight-recorder record: the
// finish event with its headline numbers, then one event per nonzero
// pipeline stage. The caller already appended check_start.
func journalCheckEvents(checkID uint64, tenant string, res *Result, verdict string) {
	st := &res.Stats
	typ := obs.EvCheckFinish
	if verdict == verdictUndecided {
		typ = obs.EvCheckUndecided
	}
	obs.DefaultJournal.Append(typ, checkID, "",
		obs.F("verdict", verdict),
		obs.F("algorithm", st.Algorithm.String()),
		obs.F("tenant", tenant),
		obs.F("duration_ns", int64(st.Duration)),
		obs.F("cliques", st.Cliques),
		obs.F("worlds", st.WorldsEvaluated),
		obs.F("prechecked", st.Prechecked),
		obs.F("cached_components", st.ComponentsCached))
	for _, stage := range st.StageBreakdown() {
		obs.DefaultJournal.Append(obs.EvStage, checkID, "",
			obs.F("stage", stage.Name),
			obs.F("ns", int64(stage.Duration)))
	}
}

// offerExemplar submits the check to the slow/undecided exemplar store:
// identity, options, verdict, per-stage breakdown, witness summary, and
// the rendered span tree when the check ran under a trace.
func offerExemplar(checkID uint64, span *obs.Span, start time.Time, res *Result, opts Options, qtext string, attrib checkAttrib, verdict string) {
	st := &res.Stats
	// Cheap pre-test: most checks are faster than the slow-list floor
	// and not undecided, so skip building the exemplar at all.
	if verdict != verdictUndecided && time.Duration(st.Duration) < obs.DefaultExemplars.Threshold() {
		return
	}
	stages := make([]obs.StageNS, 0, 6)
	for _, stage := range st.StageBreakdown() {
		stages = append(stages, obs.StageNS{Name: stage.Name, NS: int64(stage.Duration)})
	}
	ex := obs.Exemplar{
		TraceID:   checkID,
		Name:      qtext,
		Start:     start,
		Duration:  int64(st.Duration),
		Verdict:   verdict,
		Algorithm: st.Algorithm.String(),
		Class:     attrib.class,
		Tenant:    attrib.prin.Tenant,
		Options:   optionsSummary(opts),
		Stages:    stages,
		Witness:   witnessSummary(res, verdict),
		SpanTree:  span.Render(),
	}
	obs.DefaultExemplars.Offer(ex)
}

// recordAttribution bills one finished check's cost vector to its
// principal in the process-wide Accountant.
func recordAttribution(attrib checkAttrib, res *Result) {
	st := &res.Stats
	obs.DefaultAccountant.Record(obs.CheckCost{
		Principal:   attrib.prin,
		Class:       attrib.class,
		Constraints: attrib.cons,
		Algo:        st.Algorithm.String(),
		Cost: obs.CostVector{
			WallNS:       int64(st.Duration),
			Cliques:      int64(st.Cliques),
			Worlds:       int64(st.WorldsEvaluated),
			PlanProbes:   st.PlanProbes,
			CacheHits:    int64(st.CacheHits),
			CacheMisses:  int64(st.CacheMisses),
			SweepReplays: int64(st.SweepReplays),
		},
	})
}

// optionsSummary renders the check options that affect cost.
func optionsSummary(opts Options) string {
	var parts []string
	if opts.Workers > 1 {
		parts = append(parts, fmt.Sprintf("workers=%d", opts.Workers))
	}
	if !opts.Deadline.IsZero() {
		parts = append(parts, "deadline=set")
	}
	if opts.DisablePrecheck {
		parts = append(parts, "precheck=off")
	}
	if opts.DisableCoverFilter {
		parts = append(parts, "covers=off")
	}
	return strings.Join(parts, " ")
}

// witnessSummary compresses a violation witness for the exemplar store
// (the full pending transactions stay in the database, not the
// recorder).
func witnessSummary(res *Result, verdict string) string {
	if verdict != verdictViolated {
		return ""
	}
	if len(res.Witness) == 0 {
		return "current state alone"
	}
	const keep = 8
	if len(res.Witness) <= keep {
		return fmt.Sprintf("pending %v", res.Witness)
	}
	return fmt.Sprintf("pending %v… (%d total)", res.Witness[:keep], len(res.Witness))
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"blockchaindb/internal/graph"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// Algorithm selects how Check decides denial constraint satisfaction.
type Algorithm int

// The available algorithms.
const (
	// AlgoAuto picks the best applicable algorithm: the PTIME
	// fd-only solver when the constraints have no inclusion
	// dependencies and the query is conjunctive or an aggregate in
	// that solver's fragment (see AlgoFDOnly); OptDCSat for connected
	// monotone queries; NaiveDCSat for other monotone queries; and the
	// exhaustive checker otherwise.
	AlgoAuto Algorithm = iota
	// AlgoNaive is the paper's NaiveDCSat: enumerate maximal cliques
	// of the fd-transaction graph over all pending transactions.
	// Requires a monotonic query.
	AlgoNaive
	// AlgoOpt is the paper's OptDCSat: split pending transactions into
	// connected components of the ind-q-transaction graph, filter by
	// constant coverage, and enumerate cliques per component. When
	// that search finds no violation, the groups merged through
	// committed tuples (the state-bridge closure, see indQSplit) are
	// searched too. Requires a monotonic query; falls back to
	// NaiveDCSat when the query is not connected (as the paper does for
	// aggregate queries).
	AlgoOpt
	// AlgoFDOnly is the PTIME solver family for databases whose
	// constraints contain no inclusion dependencies: for conjunctive
	// queries (Theorem 1.1, negation allowed) it enumerates the
	// query's satisfying assignments over R ∪ ∪T and tests whether
	// some assignment's supporting transactions are mutually
	// fd-consistent; for positive aggregate queries with a
	// small-side comparison — count/cntd/sum/max with < or <=, min
	// with > or >= (Theorem 2.2 and the min/max duality) — it
	// evaluates the aggregate on the minimal world of each
	// assignment's support. Rejects databases with INDs and
	// aggregate queries outside that fragment.
	AlgoFDOnly
	// AlgoExhaustive enumerates every possible world — exponential,
	// correct for every query class; the ground truth.
	AlgoExhaustive
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoNaive:
		return "naive"
	case AlgoOpt:
		return "opt"
	case AlgoFDOnly:
		return "fdonly"
	case AlgoExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ErrUndecided is the sentinel wrapped into the error a Check returns
// when cancellation — Options.Deadline, a context deadline, or an
// explicit cancel — cut the search short before either verdict was
// reached. It is a third outcome, distinct from "satisfied" and
// "violated": nothing is known about the constraint. Callers test for
// it with errors.Is(err, ErrUndecided); the wrapped cause (typically
// context.DeadlineExceeded) is preserved.
var ErrUndecided = errors.New("undecided")

// undecided wraps a context error into the ErrUndecided chain. Both
// ErrUndecided and the cause stay reachable through errors.Is, so
// callers can distinguish a deadline from an explicit cancellation.
func undecided(cause error) error {
	return fmt.Errorf("core: %w: %w", ErrUndecided, cause)
}

// isCtxErr reports whether err is a context cancellation rather than a
// real evaluation failure. The parallel search uses it to tell a unit
// that was cut short apart from one that hit a genuine error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Options configures Check. The zero value requests AlgoAuto with all
// optimizations enabled.
type Options struct {
	Algorithm Algorithm
	// DisablePrecheck skips the monotone pre-check (evaluate q over
	// R ∪ ∪T first). Ablation only.
	DisablePrecheck bool
	// DisableCoverFilter skips OptDCSat's constant-coverage filter.
	// Ablation only.
	DisableCoverFilter bool
	// Workers > 1 runs the clique search's work queue on that many
	// goroutines; otherwise it runs inline on the caller. The units
	// are the ind-q components, or, when the search has a single
	// component (AlgoNaive, non-connected queries, or one giant ind-q
	// component), branches of its Bron–Kerbosch tree. Any value
	// reports the violation the serial search finds first.
	Workers int
	// Deadline, when nonzero, bounds the check's wall clock: past it
	// the search is cancelled cooperatively and Check returns an
	// error wrapping ErrUndecided instead of a verdict. A violation
	// found before the deadline fires is still reported (one
	// violating world is definitive); only "satisfied" requires the
	// exhausted search the deadline may interrupt.
	Deadline time.Time
}

// Stats reports what an invocation of Check did, including the
// per-stage durations the paper's evaluation section (Fig 6, Table 1)
// breaks runtime into. In parallel runs the stage durations are summed
// across workers, so they measure work, not wall clock; WorkerBusy
// relates the two.
type Stats struct {
	Algorithm         Algorithm
	Prechecked        bool // decided by the pre-check alone
	LivePending       int  // transactions surviving the liveness filter
	Components        int  // ind-q groups searched (OptDCSat): the direct ones, plus any the state bridge merged
	ComponentsCovered int  // components passing the Covers filter
	ComponentsCached  int  // components answered from the verdict store, by either selector
	Cliques           int  // maximal cliques enumerated
	WorldsEvaluated   int  // worlds the query was evaluated on
	WorldsIncremental int  // worlds extended in place along the clique tree (delta re-probe)
	WorldsRebuilt     int  // clique-tree roots evaluated in full (one per walk)
	RootsShared       int  // of those, evaluated on the prepared view's root (a walk below it still runs the fixpoint)
	SplitsShared      int  // OptDCSat splits taken from the prepared view, built by an earlier check of the query
	Duration          time.Duration

	// Cost-attribution counters (obs.CostVector sources): compiled-plan
	// tuple probes, split-table lookups, and sweep replays for this
	// check.
	PlanProbes   int64
	CacheHits    int
	CacheMisses  int
	SweepReplays int

	// Per-stage durations (the Section 6/7 cost model).
	PrecheckDur   time.Duration // monotone pre-check over R ∪ ∪T
	LiveFilterDur time.Duration // fd-liveness filter over the pending set
	ClosureDur    time.Duration // ind-q component split + state-bridge closure
	GraphBuildDur time.Duration // fd-transaction graph construction
	CliqueDur     time.Duration // Bron–Kerbosch enumeration (excluding evaluation)
	EvalDur       time.Duration // per-world query evaluation (incl. world materialization)

	// Parallel execution: workers used and their summed busy time
	// (WorkerBusy/(Duration*WorkersUsed) is the pool utilization).
	WorkersUsed int
	WorkerBusy  time.Duration
}

// Merge folds another invocation's (or worker's) stats into s: counts
// and durations add; booleans or. Every additive field must be listed
// here — the parallel search relies on Merge to not drop stats.
func (s *Stats) Merge(o Stats) {
	s.Prechecked = s.Prechecked || o.Prechecked
	s.LivePending += o.LivePending
	s.Components += o.Components
	s.ComponentsCovered += o.ComponentsCovered
	s.ComponentsCached += o.ComponentsCached
	s.Cliques += o.Cliques
	s.WorldsEvaluated += o.WorldsEvaluated
	s.WorldsIncremental += o.WorldsIncremental
	s.WorldsRebuilt += o.WorldsRebuilt
	s.RootsShared += o.RootsShared
	s.SplitsShared += o.SplitsShared
	s.Duration += o.Duration
	s.PlanProbes += o.PlanProbes
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.SweepReplays += o.SweepReplays
	s.PrecheckDur += o.PrecheckDur
	s.LiveFilterDur += o.LiveFilterDur
	s.ClosureDur += o.ClosureDur
	s.GraphBuildDur += o.GraphBuildDur
	s.CliqueDur += o.CliqueDur
	s.EvalDur += o.EvalDur
	s.WorkersUsed += o.WorkersUsed
	s.WorkerBusy += o.WorkerBusy
}

// StageBreakdown lists the nonzero per-stage durations in pipeline
// order, for reports and trace rendering.
func (s *Stats) StageBreakdown() []Stage {
	all := []Stage{
		{"precheck", s.PrecheckDur},
		{"live_filter", s.LiveFilterDur},
		{"component_split", s.ClosureDur},
		{"fd_graph_build", s.GraphBuildDur},
		{"clique_enum", s.CliqueDur},
		{"world_eval", s.EvalDur},
	}
	out := all[:0]
	for _, st := range all {
		if st.Duration > 0 {
			out = append(out, st)
		}
	}
	return out
}

// Stage is one named pipeline stage with its accumulated duration.
type Stage struct {
	Name     string
	Duration time.Duration
}

// Result is the outcome of a denial constraint satisfaction check.
type Result struct {
	// Satisfied is true when D |= ¬q: the query is false in every
	// possible world, so the undesirable outcome cannot occur.
	Satisfied bool
	// Witness, when Satisfied is false, lists the indexes (into
	// D.Pending) of a transaction set whose possible world satisfies
	// the query. Empty means the current state alone violates the
	// denial constraint.
	Witness []int
	// WitnessIDs is Witness as the Monitor's stable pending ids,
	// sorted. Only Monitor.Check sets it, mapping the slots under the
	// check's own read lock, so a concurrent mutation cannot shift the
	// slots in between.
	WitnessIDs []int
	Stats      Stats
}

// Check decides whether the blockchain database satisfies the denial
// constraint: D |= ¬q iff q evaluates to false over every possible
// world. The options select the algorithm; AlgoAuto (the zero value)
// routes to the cheapest applicable one. Check returns an error when
// the query does not fit the database's schemas, the options are
// misconfigured (see Options.Validate), or the requested algorithm
// cannot handle the query class.
//
// The context is the one true cancellation and observability handle:
// cancelling it (or setting Options.Deadline) aborts the search
// cooperatively with an error wrapping ErrUndecided, and when the
// context carries an active obs trace, every pipeline stage (precheck,
// component split, graph build, clique enumeration, evaluation)
// records a span under it. Without a trace the instrumentation
// degrades to the obs no-op path plus the per-stage duration counters
// in Stats. Pass context.Background() when neither applies.
//
// When the returned error wraps ErrUndecided the Result is still
// non-nil: it carries the partial Stats (stage durations, clique and
// world counts) accumulated before the cut-off, so callers can report
// where an interrupted check spent its time. Its Satisfied field is
// meaningless — always test the error first.
func Check(ctx context.Context, d *possible.DB, q *query.Query, opts Options) (*Result, error) {
	return checkContext(ctx, d, q, opts, checkEnv{})
}

// checkContext is the shared pipeline behind Check and Monitor.Check:
// the validation front door, the Simplify rewrite, algorithm routing,
// deadline handling, dispatch, and the closing bookkeeping (duration,
// metrics, undecided translation). The env carries the Monitor, whose
// maintained graphs and verdict store the clique search reads; the
// stateless entrypoint passes the zero env.
func checkContext(ctx context.Context, d *possible.DB, q *query.Query, opts Options, env checkEnv) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.IsBoolean() {
		return nil, fmt.Errorf("core: denial constraints are Boolean; use CertainAnswers/PossibleAnswers for %s", q)
	}
	if err := q.CheckAgainst(d.State); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "dcsat_check")
	defer span.End()
	// Process-unique check ID: the trace ID when running under an obs
	// trace (so journal events and the span tree correlate), a fresh ID
	// otherwise.
	checkID := span.TraceID()
	if checkID == 0 {
		checkID = obs.NextTraceID()
	}
	env.checkID = checkID
	gInflight.Add(1)
	defer gInflight.Add(-1)
	start := time.Now()
	class := string(Classify(q, d.Constraints))
	vChecksByClass.With(class).Inc()
	// The attribution identity this check is billed to: the principal
	// carried on the context (tenant defaulted), the complexity class,
	// and the constraint-set shape. The query fingerprint is fixed after
	// Simplify, inside finishCheck.
	attrib := checkAttrib{
		prin:  obs.ResolvePrincipal(ctx),
		class: class,
		cons:  fmt.Sprintf("fd%d/ind%d", len(d.Constraints.FDs), len(d.Constraints.INDs)),
	}
	obs.DefaultJournal.Append(obs.EvCheckStart, checkID, "",
		obs.F("query", q.String()),
		obs.F("algorithm", opts.Algorithm.String()),
		obs.F("tenant", attrib.prin.Tenant),
		obs.F("pending", len(d.Pending)))
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	// An already-expired deadline (or cancelled caller) must come back
	// undecided immediately, before any data-sized work runs. The
	// Result still flows through the flight recorder so the cut-off is
	// visible in the journal and the undecided exemplar ring.
	if err := ctx.Err(); err != nil {
		res := &Result{Stats: Stats{Algorithm: opts.Algorithm, Duration: time.Since(start)}}
		finishCheck(checkID, span, start, res, opts, q.String(), attrib, verdictUndecided)
		return res, undecided(err)
	}
	// Rewrite first: constant folding may prove the constraint
	// trivially satisfied, and pushing constants into atoms sharpens
	// both the evaluator's index use and OptDCSat's Covers filter.
	simplified, satisfiable := query.Simplify(q)
	if !satisfiable {
		span.SetAttr("rewrite", "unsatisfiable")
		res := &Result{Satisfied: true, Stats: Stats{
			Algorithm:  opts.Algorithm,
			Prechecked: true,
			Duration:   time.Since(start),
		}}
		finishCheck(checkID, span, start, res, opts, q.String(), attrib, verdictSatisfied)
		return res, nil
	}
	q = simplified
	// The simplified query's canonical text, built once: it keys the
	// plan cache, the prepared view's split memo and the Monitor's
	// verdict table, and names the check in its closing bookkeeping.
	env.qtext = q.String()
	// Compile the simplified query once per check; every evaluation
	// below reuses this plan (schema pointers are shared by all
	// overlays over d.State, so it stays valid for every world).
	// Compile fails only where CheckAgainst does, which passed above.
	plan, err := query.PlanForText(env.qtext, q, d.State)
	if err != nil {
		return nil, err
	}
	env.plan = plan
	span.SetAttr("plan", plan.OrderSummary())
	algo := opts.Algorithm
	if algo == AlgoAuto {
		switch {
		case !d.Constraints.HasINDs() && (!q.IsAggregate() || aggFDOnlyApplies(q)):
			algo = AlgoFDOnly
		case q.IsMonotonic() && q.IsConnected():
			algo = AlgoOpt
		case q.IsMonotonic():
			algo = AlgoNaive
		default:
			algo = AlgoExhaustive
		}
	}
	span.SetAttr("algorithm", algo.String())
	if env.view == nil && algo != AlgoExhaustive {
		env.view = prepare(d)
	}
	var res *Result
	switch algo {
	case AlgoNaive:
		res, err = cliqueDCSat(ctx, d, q, opts, false, env)
	case AlgoOpt:
		res, err = cliqueDCSat(ctx, d, q, opts, true, env)
	case AlgoFDOnly:
		res, err = fdOnlyDCSat(ctx, d, q, env.view)
	case AlgoExhaustive:
		res, err = exhaustiveDCSat(ctx, d, q)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if err != nil {
		if isCtxErr(err) {
			// The solvers return their partial Result alongside a
			// context error; close its books so the interrupted work
			// is still accounted for (satellite of the cost model:
			// deadline pressure must not vanish from the metrics).
			if res == nil {
				res = &Result{}
			}
			res.Stats.Algorithm = algo
			res.Stats.Duration = time.Since(start)
			finishCheck(checkID, span, start, res, opts, env.qtext, attrib, verdictUndecided)
			return res, undecided(err)
		}
		return nil, err
	}
	res.Stats.Algorithm = algo
	res.Stats.Duration = time.Since(start)
	span.SetAttr("satisfied", res.Satisfied)
	finishCheck(checkID, span, start, res, opts, env.qtext, attrib, verdictOf(res))
	return res, nil
}

// checkAttrib is the attribution identity of one check: the principal
// it is billed to plus the class and constraint-shape dimensions the
// Accountant ranks by.
type checkAttrib struct {
	prin  obs.Principal
	class string
	cons  string
}

// finishCheck is the closing bookkeeping shared by every checkContext
// exit that produced a Result — decided, rewritten, or cut short:
// metrics (aggregate and labeled), journal events, exemplar capture,
// and cost attribution to the check's principal. qtext is the query's
// canonical text, post-Simplify when the pipeline got that far.
func finishCheck(checkID uint64, span *obs.Span, start time.Time, res *Result, opts Options, qtext string, attrib checkAttrib, verdict string) {
	span.SetAttr("verdict", verdict)
	if attrib.prin.Query == "" {
		// Default the principal's query dimension to the check's own
		// fingerprint.
		attrib.prin.Query = qtext
	}
	recordCheckMetrics(res, verdict)
	journalCheckEvents(checkID, attrib.prin.Tenant, res, verdict)
	offerExemplar(checkID, span, start, res, opts, qtext, attrib, verdict)
	recordAttribution(attrib, res)
}

// cliqueDCSat implements NaiveDCSat (optimized=false) and OptDCSat
// (optimized=true) for monotonic denial constraints, with the
// Section 6.3 pre-check: if q is false over R ∪ ∪T it is false over
// every possible world (all of which are contained in that union), so
// the denial constraint is satisfied. Everything it knows about the
// database beyond d itself — the union, the live slots, the Θ_I seeds,
// the fd conflicts, the live root and the query's split — it reads
// from env.view.
func cliqueDCSat(ctx context.Context, d *possible.DB, q *query.Query, opts Options, optimized bool, env checkEnv) (*Result, error) {
	if !q.IsMonotonic() {
		return nil, fmt.Errorf("core: %s requires a monotonic denial constraint; %s is not "+
			"(use AlgoExhaustive, or AlgoFDOnly when the constraints have no inclusion dependencies)",
			map[bool]string{false: "NaiveDCSat", true: "OptDCSat"}[optimized], q)
	}
	res := &Result{Satisfied: true}
	// Pre-check over the union of everything.
	if !opts.DisablePrecheck {
		_, preSpan := obs.Start(ctx, "precheck")
		preStart := time.Now()
		union := env.view.union()
		res.Stats.WorldsEvaluated++
		hit, err := env.plan.EvalPooled(union)
		res.Stats.PrecheckDur = time.Since(preStart)
		preSpan.SetAttr("hit", hit)
		preSpan.End()
		if err != nil {
			return nil, err
		}
		if !hit {
			res.Stats.Prechecked = true
			return res, nil
		}
	}
	// The polynomial stages below can take milliseconds on large
	// pending sets; poll between them so a deadline does not have to
	// wait for the first in-search poll point. Cancellation returns the
	// partial res so the stages already run stay accounted for.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// The current state alone is a possible world; check it explicitly
	// so component filtering below cannot hide an R-only violation.
	res.Stats.WorldsEvaluated++
	if hit, err := env.plan.EvalPooled(d.State); err != nil {
		return nil, err
	} else if hit {
		res.Satisfied = false
		res.Witness = []int{}
		return res, nil
	}
	// Verdict reuse: a Monitor keeps one table per query, keyed by the
	// simplified query's canonical text. A sweep table answers by
	// replaying the mutation journal — O(touched components) — instead
	// of running the O(n) live filter and component split below.
	if env.useTable(q, opts, optimized) {
		sweepCtx, sweepSpan := obs.Start(ctx, "sweep")
		err := env.table.sweep(sweepCtx, d, q, opts, env, res)
		sweepSpan.SetAttr("components", res.Stats.Components)
		sweepSpan.SetAttr("replayed", res.Stats.ComponentsCached)
		sweepSpan.End()
		return res, err
	}
	_, liveSpan := obs.Start(ctx, "live_filter")
	liveStart := time.Now()
	live := env.view.live()
	res.Stats.LiveFilterDur = time.Since(liveStart)
	liveSpan.SetAttr("live", len(live))
	liveSpan.SetAttr("pending", len(d.Pending))
	liveSpan.End()
	res.Stats.LivePending = len(live)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	var (
		split  *querySplit
		groups [][]int
	)
	if optimized && q.IsConnected() {
		_, splitSpan := obs.Start(ctx, "component_split")
		splitStart := time.Now()
		var shared bool
		split, shared = env.view.split(q, env.qtext)
		if shared {
			res.Stats.SplitsShared++
		}
		groups = split.direct
		res.Stats.ClosureDur = time.Since(splitStart)
		splitSpan.SetAttr("components", len(groups))
		splitSpan.SetAttr("shared", shared)
		splitSpan.End()
	} else {
		groups = [][]int{live}
		env.wholeLive = true
	}
	res.Stats.Components = len(groups)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	var targets []atomFilter
	if optimized && !opts.DisableCoverFilter {
		targets = coverTargets(d, q)
	}
	// The search region interleaves graph build, clique enumeration,
	// and world evaluation per component; the stage durations
	// accumulated in Stats are attached as aggregate child spans when
	// the region ends (however it ends).
	searchCtx, searchSpan := obs.Start(ctx, "search")
	ctx = searchCtx
	defer func() {
		for _, st := range []Stage{
			{"fd_graph_build", res.Stats.GraphBuildDur},
			{"clique_enum", res.Stats.CliqueDur},
			{"world_eval", res.Stats.EvalDur},
		} {
			if st.Duration > 0 {
				searchSpan.AddStage(st.Name, st.Duration)
			}
		}
		searchSpan.SetAttr("components_covered", res.Stats.ComponentsCovered)
		searchSpan.SetAttr("components_cached", res.Stats.ComponentsCached)
		searchSpan.SetAttr("cliques", res.Stats.Cliques)
		searchSpan.SetAttr("worlds", res.Stats.WorldsEvaluated)
		if res.Stats.WorkersUsed > 1 && res.Stats.Duration == 0 {
			// Duration is set by checkContext after we return; report
			// utilization from the span's own wall clock.
			wall := searchSpan.Duration()
			if wall > 0 {
				searchSpan.SetAttr("utilization",
					fmt.Sprintf("%.0f%%", 100*float64(res.Stats.WorkerBusy)/
						(float64(wall)*float64(res.Stats.WorkersUsed))))
			}
		}
		searchSpan.End()
	}()
	o := searchComponents(ctx, d, q, groups, targets, opts.Workers, env, &res.Stats)
	// A violation in a direct group is final. "Satisfied" is final only
	// once the state-bridge closure has merged no direct groups, or the
	// coarse groups it merged have been searched too.
	if o == nil && split != nil && split.needsBridge {
		_, bridgeSpan := obs.Start(ctx, "state_bridge_closure")
		bridgeStart := time.Now()
		merged, overflow, shared := split.bridge(d, live, q, env.view.seeds())
		res.Stats.ClosureDur += time.Since(bridgeStart)
		bridgeSpan.SetAttr("merged", len(merged))
		bridgeSpan.SetAttr("overflow", overflow)
		bridgeSpan.SetAttr("shared", shared)
		bridgeSpan.End()
		res.Stats.Components += len(merged)
		if len(merged) > 0 {
			o = searchComponents(ctx, d, q, merged, targets, opts.Workers, env, &res.Stats)
		}
	}
	if o != nil && o.err != nil {
		return res, o.err
	}
	env.retain()
	if o != nil {
		res.Satisfied = false
		res.Witness = o.witness
	}
	return res, nil
}

// cliqueSearch walks one component's Bron–Kerbosch tree, or one
// branch of it, and evaluates the query on the maximal world of each
// maximal clique. It is a graph.MaximalCliquesVisitor that maintains
// ONE world along the recursion: beginIncremental evaluates the root
// world of the component's universal members — materialized by the
// search, or shared from the prepared view when the component is the
// whole live set — each Descend pushes a transaction onto a
// possible.WorldStack and enumerates only the assignments touching the
// delta, through the plan's delta-first join orders; an aggregate
// folds them into an accumulator that each Ascend restores along with
// the world. Leaves cost nothing — their
// worlds were already evaluated edge by edge on the way down. Every
// query the clique algorithms accept is monotone, so every plan
// supports this delta evaluation (Plan.SupportsDelta).
//
// Not safe for concurrent use — parallel searches give each unit its
// own instance (and each worker its own Stats, merged afterwards).
type cliqueSearch struct {
	ctx      context.Context
	d        *possible.DB
	g        *graph.Undirected // the component's fd graph over its conflicted members
	comp     []int             // conflicted members, in g's vertex order
	base     []int             // universal members: part of EVERY maximal world of the component
	stats    *Stats
	violated bool
	witness  []int
	err      error // evaluation error, or the context's error
	evalDur  time.Duration

	// Walk state: the compiled plan and its evaluation scratch, the
	// world stack the recursion pushes and pops, the aggregate
	// accumulator that follows it, the plan's relation list, and the
	// per-edge floor buffer (overlay extra counts captured just before
	// a Push, consumed immediately by EvalDelta).
	plan     *query.Plan
	sc       *query.Scratch
	ws       possible.WorldStack
	acc      query.Acc
	relNames []string
	floorBuf []int

	// Shared root: rootView holds the root when the component is the
	// whole live set (nil otherwise); root is the shared root the walk
	// is still on, cleared when the first Descend rebases the stack.
	rootView preparedView
	root     *possible.Root
}

// newCliqueSearch prepares a search over one component's fd graph.
func newCliqueSearch(ctx context.Context, d *possible.DB, cg *fdCompGraph, env checkEnv, stats *Stats) *cliqueSearch {
	s := &cliqueSearch{ctx: ctx, d: d, g: cg.g, comp: cg.conflicted, base: cg.universal,
		stats: stats, plan: env.plan, sc: query.NewScratch(), relNames: env.plan.RelNames()}
	if env.wholeLive {
		s.rootView = env.view
	}
	return s
}

// walk searches the subtree under branch b and reports the first
// violating world or error, a context cancellation included. The
// component's universal members are prepended to every world.
func (s *cliqueSearch) walk(b graph.CliqueBranch) *searchOutcome {
	enumStart := time.Now()
	var ctxErr error
	if s.beginIncremental() {
		ctxErr = graph.MaximalCliquesBranchVisit(s.ctx, s.g, b, s)
	}
	s.stats.CliqueDur += time.Since(enumStart) - s.evalDur
	s.stats.EvalDur += s.evalDur
	s.stats.PlanProbes += s.sc.TotalProbes()
	switch {
	case s.violated:
		return &searchOutcome{hit: true, witness: s.witness}
	case s.err != nil:
		return &searchOutcome{err: s.err}
	case ctxErr != nil:
		return &searchOutcome{err: ctxErr}
	}
	return nil
}

// markHit records a violating world found by the incremental walk: the
// witness is the world's included set, and the hit is also counted as
// an enumerated clique and an evaluated world so violated runs keep
// nonzero headline stats (the walk stops here, before any leaf).
func (s *cliqueSearch) markHit(included []int) {
	s.violated = true
	s.witness = append([]int(nil), included...)
	sort.Ints(s.witness)
	s.stats.Cliques++
	s.stats.WorldsEvaluated++
}

// beginIncremental establishes the incremental walk's root: the world
// of the component's universal members, fully evaluated (an aggregate
// folded in full into the accumulator). A root shared from the
// prepared view is evaluated where it stands, read-only; the stack
// materializes its own root only when the walk first descends.
// Otherwise the stack materializes the root by the fixpoint at once.
// It reports whether the tree walk should proceed — false on a root
// hit (every extension of a violating world also violates, the query
// being monotone in the view), an evaluation error, or a cancelled
// context.
func (s *cliqueSearch) beginIncremental() bool {
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return false
	}
	evalStart := time.Now()
	var (
		world    *relation.Overlay
		included []int
	)
	if s.rootView != nil {
		root, built := s.rootView.liveRoot()
		if root != nil && !built {
			s.stats.RootsShared++
		}
		s.root = root
	}
	if s.root != nil {
		world, included = s.root.World(), s.root.Included()
	} else {
		world, included = s.ws.Rebase(s.d, s.base)
	}
	s.stats.WorldsRebuilt++
	hit, err := s.plan.EvalBase(world, s.sc, &s.acc)
	s.evalDur += time.Since(evalStart)
	switch {
	case err != nil:
		s.err = err
		return false
	case hit:
		s.markHit(included)
		return false
	}
	return true
}

// Descend pushes one transaction onto the world stack and delta-probes
// the plan: only assignments touching a tuple the push added are
// enumerated (an aggregate folds just those), sound because every
// ancestor world on the path — root included — is known hit-free. A
// hit here is a valid violating world (the stack's included set is
// exactly a reachable transaction set), so the walk stops without ever
// reaching a leaf. The first Descend from a shared root rebases the
// stack on the same base; its fixpoint puts every tuple where the root
// has it, so the floors and the accumulator describe the stack's world.
func (s *cliqueSearch) Descend(v int) bool {
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return false
	}
	evalStart := time.Now()
	if s.root != nil {
		s.ws.Rebase(s.d, s.base)
		s.root = nil
	}
	s.floorBuf = s.floorBuf[:0]
	w := s.ws.World()
	for _, rel := range s.relNames {
		s.floorBuf = append(s.floorBuf, w.ExtraCount(rel))
	}
	world, _ := s.ws.Push(s.comp[v])
	s.stats.WorldsIncremental++
	hReuseDepth.Observe(int64(s.ws.Depth()))
	hit, err := s.plan.EvalDelta(world, s.sc, s.floorBuf, &s.acc)
	s.evalDur += time.Since(evalStart)
	switch {
	case err != nil:
		s.err = err
		return false
	case hit:
		s.markHit(s.ws.Included())
		return false
	}
	return true
}

// Ascend pops the world stack and the accumulator frame the matching
// Descend opened — O(tuples and cntd keys that Descend added).
func (s *cliqueSearch) Ascend() {
	s.ws.Pop()
	s.acc.Pop()
}

// Leaf counts one maximal clique. Its world needs no evaluation: it
// was already probed edge by edge on the way down, so reaching a leaf
// means the world is hit-free.
func (s *cliqueSearch) Leaf(r []int) bool {
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return false
	}
	s.stats.Cliques++
	s.stats.WorldsEvaluated++
	return true
}

// exhaustiveDCSat enumerates every possible world — the definitional
// semantics of D |= ¬q. Exponential in |T|; correct for every query
// class, including non-monotonic denial constraints.
func exhaustiveDCSat(ctx context.Context, d *possible.DB, q *query.Query) (*Result, error) {
	res := &Result{Satisfied: true}
	var evalErr error
	err := d.EnumerateWorldsCtx(ctx, func(included []int, world *relation.Overlay) bool {
		res.Stats.WorldsEvaluated++
		hit, err := query.Eval(q, world)
		if err != nil {
			evalErr = err
			return false
		}
		if hit {
			res.Satisfied = false
			res.Witness = append([]int(nil), included...)
			return false
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		return res, err // ctx error: keep the partial world count
	}
	return res, nil
}

func allPending(d *possible.DB) []int {
	out := make([]int, len(d.Pending))
	for i := range out {
		out[i] = i
	}
	return out
}

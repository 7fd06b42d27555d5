// Command dcsat decides denial constraint satisfaction over a dataset
// produced by cmd/bcdbgen (or any datafile-format JSON):
//
//	dcsat -data d200.json -q "qs() :- TxOut(ntx, s, 'PlantSimplePk', a)"
//	dcsat -data d200.json -q "qa(sum(a)) >= 100 :- TxOut(n, s, 'PlantAggPk', a)" -algo naive
//	dcsat -data d200.json -q "..." -estimate 1000 -p 0.5
//
// A query with head variables switches to answer mode: the certain
// answers (returned in every possible world) and possible answers
// (returned in some world) are printed instead of a verdict:
//
//	dcsat -data d200.json -q "q(pk) :- TxOut(n, s, pk, a), a > 400"
//
// The exit status is 0 when the constraint is satisfied (the
// undesirable outcome cannot occur), 1 when it is violated in some
// possible world, 2 on errors, and 3 when -timeout expired before the
// check reached a verdict (the constraint is undecided — nothing is
// known either way). Answer mode exits 0, or 3 when -timeout expired
// before the answers were complete.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"blockchaindb/internal/core"
	"blockchaindb/internal/datafile"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset JSON (required)")
		qSrc     = flag.String("q", "", "denial constraint (required), e.g. \"q() :- TxOut(n, s, 'Pk', a)\"")
		algoName = flag.String("algo", "auto", "algorithm: auto, naive, opt, fdonly, exhaustive")
		workers  = flag.Int("workers", 1, "parallel workers (components and clique-tree branches)")
		timeout  = flag.Duration("timeout", 0, "abort the check after this long and exit 3 (undecided)")
		estimate = flag.Int("estimate", 0, "also Monte-Carlo estimate the violation probability with this many samples")
		inclP    = flag.Float64("p", 0.5, "per-transaction inclusion probability for -estimate")
		seed     = flag.Int64("seed", 1, "sampling seed for -estimate")
		verbose  = flag.Bool("v", false, "print stats and classification")
		explain  = flag.Bool("explain", false, "print the evaluator's plan, then the decision path and per-stage cost breakdown of the check (decided or undecided)")
		stats    = flag.Bool("stats", false, "print the per-stage time breakdown and instrument counters")
		trace    = flag.Bool("trace", false, "print the span tree of the check")

		journalCap = flag.Int("journal-cap", 0, "resize the flight-recorder journal ring to this many events (0 keeps the default)")
		slowFloor  = flag.Duration("slow-floor", 0, "minimum check duration to be eligible for the slow-exemplar list")
		tenant     = flag.String("tenant", "", "attribution principal the check is billed to (obs cost accounting)")
	)
	flag.Parse()
	if *dataPath == "" || *qSrc == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *journalCap > 0 {
		obs.DefaultJournal.Resize(*journalCap)
	}
	if *slowFloor > 0 {
		obs.DefaultExemplars.SetDurationFloor(*slowFloor)
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	db, err := datafile.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	q, err := query.Parse(*qSrc)
	if err != nil {
		fatal(err)
	}
	if *explain {
		plan, err := query.Explain(q, db.State)
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
		fmt.Println()
	}
	if !q.IsBoolean() {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		answerErr := func(err error) {
			if errors.Is(err, core.ErrUndecided) {
				fmt.Printf("UNDECIDED: %v (timeout %v)\n", err, *timeout)
				os.Exit(3)
			}
			if err != nil {
				fatal(err)
			}
		}
		certain, err := core.CertainAnswers(ctx, db, q)
		answerErr(err)
		possible, err := core.PossibleAnswers(ctx, db, q)
		answerErr(err)
		fmt.Printf("certain answers (%d):\n", len(certain))
		for _, t := range certain {
			fmt.Println("  ", t)
		}
		fmt.Printf("possible answers (%d):\n", len(possible))
		for _, t := range possible {
			fmt.Println("  ", t)
		}
		if *trace {
			fmt.Fprintln(os.Stderr, "dcsat: -trace applies to boolean constraint checks only; ignored in answer mode")
		}
		if *stats {
			fmt.Printf("\ninstruments:\n%s", obs.Default.Snapshot().Format())
		}
		return
	}

	algos := map[string]core.Algorithm{
		"auto": core.AlgoAuto, "naive": core.AlgoNaive, "opt": core.AlgoOpt,
		"fdonly": core.AlgoFDOnly, "exhaustive": core.AlgoExhaustive,
	}
	algo, ok := algos[strings.ToLower(*algoName)]
	if !ok {
		fatal(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	ctx := context.Background()
	if *tenant != "" {
		ctx = obs.WithPrincipal(ctx, *tenant, "")
	}
	var root *obs.Span
	if *trace {
		ctx, root = obs.StartTrace(ctx, "dcsat")
	}
	opts := core.Options{Algorithm: algo, Workers: *workers}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	res, err := core.Check(ctx, db, q, opts)
	root.End()
	if errors.Is(err, core.ErrUndecided) {
		fmt.Printf("UNDECIDED: %v (timeout %v)\n", err, *timeout)
		// The partial Result still carries the stages that did run, so
		// -explain shows where the interrupted check spent its budget.
		if *explain && res != nil {
			explainCheck(q, db, res, true)
		}
		if *trace {
			fmt.Printf("\ntrace:\n%s", root.Render())
		}
		os.Exit(3)
	}
	if err != nil {
		fatal(err)
	}
	if res.Satisfied {
		fmt.Printf("SATISFIED: %s holds in every possible world (checked in %v)\n",
			"¬"+q.Name, res.Stats.Duration.Round(10*time.Microsecond))
	} else {
		fmt.Printf("VIOLATED: a possible world satisfies %s (found in %v)\n",
			q.Name, res.Stats.Duration.Round(10*time.Microsecond))
		if len(res.Witness) == 0 {
			fmt.Println("witness: the current state alone")
		} else {
			names := make([]string, len(res.Witness))
			for i, w := range res.Witness {
				names[i] = db.Pending[w].String()
			}
			fmt.Printf("witness: pending transactions %s\n", strings.Join(names, ", "))
		}
	}
	if *verbose {
		st := res.Stats
		fmt.Printf("algorithm=%v prechecked=%v live=%d components=%d covered=%d cliques=%d worlds=%d\n",
			st.Algorithm, st.Prechecked, st.LivePending, st.Components,
			st.ComponentsCovered, st.Cliques, st.WorldsEvaluated)
		fmt.Printf("complexity: DCSat for this query class and constraint types is %s (Theorems 1–2)\n",
			core.Classify(q, db.Constraints))
	}
	if *explain {
		explainCheck(q, db, res, false)
	}
	if *trace {
		fmt.Printf("\ntrace:\n%s", root.Render())
	}
	if *stats {
		printBreakdown(&res.Stats)
		fmt.Printf("\ninstruments:\n%s", obs.Default.Snapshot().Format())
	}
	if *estimate > 0 {
		est, err := core.EstimateViolation(db, q, core.UniformInclusion(*inclP), *estimate, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("violation probability ≈ %.4f ± %.4f (%d samples, inclusion p=%.2f)\n",
			est.Probability, est.StdErr, est.Samples, *inclP)
	}
	if !res.Satisfied {
		os.Exit(1)
	}
}

// explainCheck renders the decision path the check took and where its
// time went. For an undecided check the breakdown covers the stages
// that ran before the deadline or cancellation cut the search short.
func explainCheck(q *query.Query, db *possible.DB, res *core.Result, cut bool) {
	st := res.Stats
	fmt.Printf("\ndecision path:\n")
	fmt.Printf("  class      %s (Theorems 1-2 data complexity)\n", core.Classify(q, db.Constraints))
	fmt.Printf("  algorithm  %v\n", st.Algorithm)
	switch {
	case st.Prechecked:
		fmt.Printf("  route      decided by the monotone pre-check over R ∪ ∪T\n")
	case cut:
		fmt.Printf("  route      cut short after %d/%d components, %d cliques, %d worlds\n",
			st.ComponentsCovered, st.Components, st.Cliques, st.WorldsEvaluated)
	default:
		fmt.Printf("  route      %d live pending → %d components (%d covered) → %d cliques → %d worlds\n",
			st.LivePending, st.Components, st.ComponentsCovered, st.Cliques, st.WorldsEvaluated)
	}
	if st.WorkersUsed > 1 {
		fmt.Printf("  parallel   %d workers, %v summed busy time\n", st.WorkersUsed, st.WorkerBusy.Round(time.Microsecond))
	}
	printBreakdown(&st)
}

// printBreakdown prints the per-stage cost table in pipeline order.
func printBreakdown(st *core.Stats) {
	fmt.Printf("\nstage breakdown (total %v):\n", st.Duration.Round(10*time.Microsecond))
	stages := st.StageBreakdown()
	if len(stages) == 0 {
		fmt.Println("  (no stage ran before the check ended)")
		return
	}
	for _, stage := range stages {
		pct := 0.0
		if st.Duration > 0 {
			pct = 100 * float64(stage.Duration) / float64(st.Duration)
		}
		fmt.Printf("  %-18s %12v %5.1f%%\n", stage.Name, stage.Duration.Round(time.Microsecond), pct)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsat:", err)
	os.Exit(2)
}

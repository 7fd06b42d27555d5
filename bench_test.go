// Benchmarks regenerating the paper's evaluation, one per table and
// figure (Section 7), plus ablation benches for the design choices in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// These measure the steady-state checking cost (dataset generation sits
// outside the timer); the cmd/experiments harness prints the
// paper-style tables with absolute wall-clock numbers.
package blockchaindb_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"blockchaindb/internal/bench"
	"blockchaindb/internal/core"
	"blockchaindb/internal/fixture"
	"blockchaindb/internal/graph"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
	"blockchaindb/internal/workload"
)

// benchConfig returns the D200-analogue configuration at benchmark
// scale.
func benchConfig(blocks, txPerBlock int) workload.Config {
	return workload.Config{
		Seed:              1,
		Blocks:            blocks,
		TxPerBlock:        txPerBlock,
		Users:             300,
		PendingBlocks:     20,
		PendingTxPerBlock: 12,
		Contradictions:    20,
		ChainProb:         0.3,
		MaxOuts:           3,
	}
}

func d200() workload.Config { return benchConfig(120, 24) }

func runCheck(b *testing.B, ds *workload.Dataset, q *query.Query, opts core.Options, want bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Check(context.Background(), ds.DB, q, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Satisfied != want {
			b.Fatalf("verdict %v, want %v", res.Satisfied, want)
		}
	}
}

// BenchmarkTable1_Datasets measures dataset generation (the substrate
// behind Table 1's statistics).
func BenchmarkTable1_Datasets(b *testing.B) {
	for _, size := range []struct {
		name               string
		blocks, txPerBlock int
	}{
		{"D100", 60, 4}, {"D200", 120, 24}, {"D300", 180, 64},
	} {
		b.Run(size.name, func(b *testing.B) {
			cfg := benchConfig(size.blocks, size.txPerBlock)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds := workload.Generate(cfg)
				if ds.Stats.Transactions == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// queryTypeBench benches Figure 6a/6b: the four query families, Naive
// and Opt, on the D200 analogue.
func queryTypeBench(b *testing.B, satisfied bool) {
	ds := workload.Generate(d200())
	type qt struct {
		label string
		kind  workload.QueryKind
		size  int
		opt   bool
	}
	for _, qq := range []qt{
		{"qs", workload.QuerySimple, 0, true},
		{"qp3", workload.QueryPath, 3, true},
		{"qr3", workload.QueryStar, 3, true},
		{"qa", workload.QueryAggregate, 0, false},
	} {
		q := ds.MustQuery(qq.kind, qq.size, satisfied)
		b.Run(qq.label+"/naive", func(b *testing.B) {
			runCheck(b, ds, q, core.Options{Algorithm: core.AlgoNaive}, satisfied)
		})
		if qq.opt {
			b.Run(qq.label+"/opt", func(b *testing.B) {
				runCheck(b, ds, q, core.Options{Algorithm: core.AlgoOpt}, satisfied)
			})
		}
	}
}

// BenchmarkFig6a_QueryTypes_Satisfied regenerates Figure 6a.
func BenchmarkFig6a_QueryTypes_Satisfied(b *testing.B) { queryTypeBench(b, true) }

// BenchmarkFig6b_QueryTypes_Unsatisfied regenerates Figure 6b.
func BenchmarkFig6b_QueryTypes_Unsatisfied(b *testing.B) { queryTypeBench(b, false) }

// pendingBench benches Figure 6c/6d: qp3 across pending volumes.
func pendingBench(b *testing.B, satisfied bool) {
	for _, blocks := range []int{10, 30, 50} {
		cfg := d200()
		cfg.PendingBlocks = blocks
		ds := workload.Generate(cfg)
		q := ds.MustQuery(workload.QueryPath, 3, satisfied)
		for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoOpt} {
			b.Run(fmt.Sprintf("pending%d/%v", ds.Stats.PendingTransactions, algo), func(b *testing.B) {
				runCheck(b, ds, q, core.Options{Algorithm: algo}, satisfied)
			})
		}
	}
}

// BenchmarkFig6c_Pending_Satisfied regenerates Figure 6c.
func BenchmarkFig6c_Pending_Satisfied(b *testing.B) { pendingBench(b, true) }

// BenchmarkFig6d_Pending_Unsatisfied regenerates Figure 6d.
func BenchmarkFig6d_Pending_Unsatisfied(b *testing.B) { pendingBench(b, false) }

// contradictionBench benches Figure 6e/6f: qp3 across contradiction
// counts.
func contradictionBench(b *testing.B, satisfied bool) {
	for _, n := range []int{10, 30, 50} {
		cfg := d200()
		cfg.Contradictions = n
		ds := workload.Generate(cfg)
		q := ds.MustQuery(workload.QueryPath, 3, satisfied)
		for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoOpt} {
			b.Run(fmt.Sprintf("contradictions%d/%v", n, algo), func(b *testing.B) {
				runCheck(b, ds, q, core.Options{Algorithm: algo}, satisfied)
			})
		}
	}
}

// BenchmarkFig6e_Contradictions_Satisfied regenerates Figure 6e.
func BenchmarkFig6e_Contradictions_Satisfied(b *testing.B) { contradictionBench(b, true) }

// BenchmarkFig6f_Contradictions_Unsatisfied regenerates Figure 6f.
func BenchmarkFig6f_Contradictions_Unsatisfied(b *testing.B) { contradictionBench(b, false) }

// BenchmarkFig6g_QuerySize regenerates Figure 6g: unsatisfied path
// queries of sizes 2–5.
func BenchmarkFig6g_QuerySize(b *testing.B) {
	ds := workload.Generate(d200())
	for _, size := range []int{2, 3, 4, 5} {
		q := ds.MustQuery(workload.QueryPath, size, false)
		for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoOpt} {
			b.Run(fmt.Sprintf("qp%d/%v", size, algo), func(b *testing.B) {
				runCheck(b, ds, q, core.Options{Algorithm: algo}, false)
			})
		}
	}
}

// BenchmarkFig6h_DataSize regenerates Figure 6h: unsatisfied qp3 across
// dataset sizes.
func BenchmarkFig6h_DataSize(b *testing.B) {
	for _, size := range []struct {
		name               string
		blocks, txPerBlock int
	}{
		{"D100", 60, 4}, {"D200", 120, 24}, {"D300", 180, 64},
	} {
		ds := workload.Generate(benchConfig(size.blocks, size.txPerBlock))
		q := ds.MustQuery(workload.QueryPath, 3, false)
		for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoOpt} {
			b.Run(fmt.Sprintf("%s/%v", size.name, algo), func(b *testing.B) {
				runCheck(b, ds, q, core.Options{Algorithm: algo}, false)
			})
		}
	}
}

// BenchmarkAblationPrecheck quantifies the Section 6.3 pre-check
// (satisfied constraint, NaiveDCSat).
func BenchmarkAblationPrecheck(b *testing.B) {
	cfg := benchConfig(60, 4)
	cfg.Contradictions = 4
	ds := workload.Generate(cfg)
	q := ds.MustQuery(workload.QueryPath, 3, true)
	b.Run("on", func(b *testing.B) {
		runCheck(b, ds, q, core.Options{Algorithm: core.AlgoNaive}, true)
	})
	b.Run("off", func(b *testing.B) {
		runCheck(b, ds, q, core.Options{Algorithm: core.AlgoNaive, DisablePrecheck: true}, true)
	})
}

// BenchmarkAblationCovers quantifies OptDCSat's coverage filter.
func BenchmarkAblationCovers(b *testing.B) {
	ds := workload.Generate(d200())
	q := ds.MustQuery(workload.QueryPath, 3, false)
	b.Run("on", func(b *testing.B) {
		runCheck(b, ds, q, core.Options{Algorithm: core.AlgoOpt}, false)
	})
	b.Run("off", func(b *testing.B) {
		runCheck(b, ds, q, core.Options{Algorithm: core.AlgoOpt, DisableCoverFilter: true}, false)
	})
}

// BenchmarkAblationPivot measures clique enumeration with and without
// Tomita pivoting on a bounded subgraph of the real fd graph.
func BenchmarkAblationPivot(b *testing.B) {
	cfg := benchConfig(60, 4)
	cfg.Contradictions = 12
	ds := workload.Generate(cfg)
	full := core.FDGraph(ds.DB)
	vertices := make([]int, 18)
	for i := range vertices {
		vertices[i] = i
	}
	g, _ := full.Subgraph(vertices)
	b.Run("pivot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.MaximalCliques(g, func([]int) bool { return true })
		}
	})
	b.Run("nopivot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.MaximalCliquesNoPivot(g, func([]int) bool { return true })
		}
	})
}

// BenchmarkAblationParallel measures component-parallel OptDCSat.
func BenchmarkAblationParallel(b *testing.B) {
	cfg := d200()
	cfg.Contradictions = 4
	ds := workload.Generate(cfg)
	q := ds.MustQuery(workload.QueryPath, 3, true)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			runCheck(b, ds, q, core.Options{
				Algorithm: core.AlgoOpt, DisablePrecheck: true, Workers: workers,
			}, true)
		})
	}
}

// warmColdSetup builds the shared substrate for the incremental
// warm-vs-cold comparison: a D200-analogue dataset with a moderate
// mempool, a satisfied path query (so the search must sweep every
// component — exactly the work the verdict cache elides), and options
// that force the sweep to happen. With the precheck on, a satisfied
// query is decided before any component search; with the cover filter
// on, this generator's satisfied queries skip every component outright
// (covered=0) and the check is trivially cheap warm or cold. Disabling
// both isolates the component-search regime the cache targets — the
// workloads where pending components do reach the query.
func warmColdSetup() (*workload.Dataset, *query.Query, core.Options) {
	cfg := d200()
	cfg.PendingBlocks = 8
	ds := workload.Generate(cfg)
	q := ds.MustQuery(workload.QueryPath, 3, true)
	opts := core.Options{
		Algorithm: core.AlgoOpt, DisablePrecheck: true, DisableCoverFilter: true,
	}
	return ds, q, opts
}

// warmDelta builds the i-th single-transaction mempool delta: a fresh
// mint paying a key no query mentions, so it forms its own ind-q
// component and every pre-existing component replays from cache.
func warmDelta(i int) *relation.Transaction {
	return relation.NewTransaction(fmt.Sprintf("delta%d", i)).
		Add("TxOut", value.NewTuple(
			value.Int(int64(9_000_000+i)), value.Int(1), value.Str("WarmPk"), value.Int(1)))
}

// warmRecheck applies one delta to the monitor and rechecks: the
// steady-state cost of a mempool tick on a warm monitor.
func warmRecheck(mon *core.Monitor, q *query.Query, opts core.Options, i int) (*core.Result, error) {
	id, err := mon.AddPending(warmDelta(i))
	if err != nil {
		return nil, err
	}
	res, err := mon.Check(context.Background(), q, opts)
	if err != nil {
		return nil, err
	}
	if derr := mon.DropPending(id); derr != nil {
		return nil, derr
	}
	return res, nil
}

// BenchmarkIncrementalWarmRecheck compares a cold full check against a
// warm Monitor recheck after a single-transaction mempool delta — the
// tentpole claim behind the per-component verdict cache.
func BenchmarkIncrementalWarmRecheck(b *testing.B) {
	ds, q, opts := warmColdSetup()
	b.Run("cold", func(b *testing.B) {
		runCheck(b, ds, q, opts, true)
	})
	b.Run("warm", func(b *testing.B) {
		mon := core.NewMonitor(ds.DB)
		// Prime the cache with one full check.
		if _, err := mon.Check(context.Background(), q, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := warmRecheck(mon, q, opts, i)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Satisfied {
				b.Fatal("verdict flipped on warm recheck")
			}
		}
	})
}

// medianDuration returns the median of the samples, sorting them in
// place. The timing guards below compare medians or minimums, never
// single runs.
func medianDuration(samples []time.Duration) time.Duration {
	slices.Sort(samples)
	return samples[len(samples)/2]
}

// fastest calls each run n times, passing the round number, and returns
// the least duration each reported. The runs interleave round by round,
// so load drift hits them alike.
func fastest(n int, runs ...func(round int) time.Duration) []time.Duration {
	best := make([]time.Duration, len(runs))
	for k := range best {
		best[k] = math.MaxInt64
	}
	for i := 0; i < n; i++ {
		for k, run := range runs {
			best[k] = min(best[k], run(i))
		}
	}
	return best
}

// TestIncrementalWarmColdGuard is the CI bench-smoke guard: it fails
// when a warm single-delta recheck is not meaningfully faster than a
// cold check (warm * 1.5 must beat cold). Gated behind BENCH_GUARD so
// ordinary test runs stay fast and timing-insensitive.
func TestIncrementalWarmColdGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the warm/cold timing guard")
	}
	ds, q, opts := warmColdSetup()

	coldRes, err := core.Check(context.Background(), ds.DB, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := fastest(3, func(int) time.Duration {
		start := time.Now()
		if _, err := core.Check(context.Background(), ds.DB, q, opts); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	})[0]

	mon := core.NewMonitor(ds.DB)
	if _, err := mon.Check(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	warm := fastest(3, func(i int) time.Duration {
		start := time.Now()
		res, err := warmRecheck(mon, q, opts, i)
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if res.Satisfied != coldRes.Satisfied {
			t.Fatalf("warm verdict %v, cold %v", res.Satisfied, coldRes.Satisfied)
		}
		if res.Stats.ComponentsCached == 0 {
			t.Fatal("warm recheck replayed no cached components")
		}
		return d
	})[0]
	t.Logf("cold=%v warm=%v speedup=%.1fx", cold, warm, float64(cold)/float64(warm))
	if warm*3/2 > cold {
		t.Fatalf("warm recheck %v is within 1.5x of cold %v — cache regressed", warm, cold)
	}
}

// mempoolMonitor builds a Monitor over n independent unique mints: no
// fd conflicts, no ind edges, so the maintained partition is n
// singleton components — the regime where any residual O(n) term in
// the warm path dominates and is therefore measurable.
func mempoolMonitor(b testing.TB, n int, monOpts ...core.MonitorOption) *core.Monitor {
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	mon := core.NewMonitor(possible.MustNew(s, cons, nil), monOpts...)
	for i := 0; i < n; i++ {
		tx := relation.NewTransaction(fmt.Sprintf("M%d", i)).
			Add("TxOut", fixture.TxOut(int64(i), 1, fmt.Sprintf("Pk%d", i), 1))
		if _, err := mon.AddPending(tx); err != nil {
			b.Fatal(err)
		}
	}
	return mon
}

// mempoolSweepQuery is the satisfied single-atom query for the
// mempool-size sweep: sweep-eligible (connected, no Θ_q equalities, no
// atom pairs), never true (the key is minted nowhere), with the
// precheck and cover filter disabled so the measured cost is the delta
// sweep itself rather than a shortcut in front of it.
func mempoolSweepQuery() (*query.Query, core.Options) {
	return query.MustParse("q() :- TxOut(t, s, 'SweepAbsentPk', a)"),
		core.Options{Algorithm: core.AlgoOpt, DisablePrecheck: true, DisableCoverFilter: true}
}

// BenchmarkMempoolSweep measures how warm single-delta Check latency
// and mutation cost scale with mempool size: check/N adds one mint,
// rechecks (the sweep replays N-1 verdicts and computes one), and drops
// it; mutate/N is the same without the Check. The tentpole claim is
// that check/N stays near-flat from 1k to 100k pending — O(touched
// component), not O(|T|).
func BenchmarkMempoolSweep(b *testing.B) {
	q, opts := mempoolSweepQuery()
	for _, n := range []int{1_000, 10_000, 100_000} {
		mon := mempoolMonitor(b, n)
		if _, err := mon.Check(context.Background(), q, opts); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("check/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := warmRecheck(mon, q, opts, i)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Satisfied {
					b.Fatal("verdict flipped")
				}
			}
		})
		b.Run(fmt.Sprintf("mutate/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id, err := mon.AddPending(warmDelta(i))
				if err != nil {
					b.Fatal(err)
				}
				if err := mon.DropPending(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Reference: the same recheck with all incremental reuse disabled
	// (no verdict cache, no sweep) — every Check re-searches every
	// component, the O(|T|) bound the sweep escapes. 100k is omitted:
	// one iteration takes longer than the whole flat series.
	for _, n := range []int{1_000, 10_000} {
		mon := mempoolMonitor(b, n, core.WithCache(0))
		b.Run(fmt.Sprintf("check_noreuse/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := warmRecheck(mon, q, opts, i)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Satisfied {
					b.Fatal("verdict flipped")
				}
			}
		})
	}
}

// TestMempoolSweepFlatGuard is the CI guard over BenchmarkMempoolSweep:
// warm single-delta Check latency must not grow superlinearly with the
// pending-set size. Medians of 31 samples; the ratio bounds carry small
// absolute floors so sub-100µs timings cannot trip the guard on timer
// noise. Gated behind BENCH_GUARD like the other timing guards.
func TestMempoolSweepFlatGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the mempool flat-latency guard")
	}
	q, opts := mempoolSweepQuery()
	const samples = 31
	measure := func(n int) (check, mutate time.Duration) {
		mon := mempoolMonitor(t, n)
		if _, err := mon.Check(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
		checks := make([]time.Duration, 0, samples)
		mutates := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			id, err := mon.AddPending(warmDelta(i))
			if err != nil {
				t.Fatal(err)
			}
			t1 := time.Now()
			res, err := mon.Check(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			t2 := time.Now()
			if err := mon.DropPending(id); err != nil {
				t.Fatal(err)
			}
			t3 := time.Now()
			if !res.Satisfied {
				t.Fatal("verdict flipped")
			}
			if res.Stats.ComponentsCached == 0 {
				t.Fatal("warm recheck replayed no components — sweep not engaged")
			}
			checks = append(checks, t2.Sub(t1))
			mutates = append(mutates, t1.Sub(t0)+t3.Sub(t2))
		}
		return medianDuration(checks), medianDuration(mutates)
	}
	smallCheck, smallMutate := measure(1_000)
	bigCheck, bigMutate := measure(100_000)
	t.Logf("warm check: 1k=%v 100k=%v (%.1fx); mutate: 1k=%v 100k=%v (%.1fx)",
		smallCheck, bigCheck, float64(bigCheck)/float64(smallCheck),
		smallMutate, bigMutate, float64(bigMutate)/float64(smallMutate))
	if bigCheck > 2*smallCheck && bigCheck > 200*time.Microsecond {
		t.Errorf("warm check at 100k pending (%v) more than 2x the 1k latency (%v): warm path is not O(delta)",
			bigCheck, smallCheck)
	}
	if bigMutate > 3*smallMutate && bigMutate > 100*time.Microsecond {
		t.Errorf("mutation at 100k pending (%v) more than 3x the 1k latency (%v): mutation is not O(touched component)",
			bigMutate, smallMutate)
	}
}

// fig6aAllocBaselines are the allocs/op of Fig6a checks on a database
// whose prepared view (DESIGN.md §16) the warm-up check built, the
// highest of three runs: the satisfied NaiveDCSat cells, and two
// violated OptDCSat cells, which search the query's ind-q split. The
// guard below fails when a change regresses any family by more than
// 20% — allocation counts on the serial path are near-deterministic,
// so this is a tight, timing-free CI tripwire for the per-world hot
// loop and for a check that stops reusing the prepared view (the
// NaiveDCSat counts were 176–346 before it, when every check rebuilt
// the union) or the split it memoizes.
var fig6aAllocBaselines = map[string]float64{
	"qs":           52,
	"qp3":          104,
	"qr3":          164,
	"qa":           65,
	"qp3 opt viol": 385,
	"qr3 opt viol": 433,
}

// TestFig6aAllocGuard is the allocation-regression guard over
// BenchmarkFig6a_QueryTypes_Satisfied's workload. Gated behind
// BENCH_GUARD like the warm/cold guard so ordinary test runs stay
// fast.
func TestFig6aAllocGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the Fig6a allocation guard")
	}
	ds := workload.Generate(d200())
	cases := []struct {
		label     string
		kind      workload.QueryKind
		size      int
		satisfied bool
		algo      core.Algorithm
	}{
		{"qs", workload.QuerySimple, 0, true, core.AlgoNaive},
		{"qp3", workload.QueryPath, 3, true, core.AlgoNaive},
		{"qr3", workload.QueryStar, 3, true, core.AlgoNaive},
		{"qa", workload.QueryAggregate, 0, true, core.AlgoNaive},
		{"qp3 opt viol", workload.QueryPath, 3, false, core.AlgoOpt},
		{"qr3 opt viol", workload.QueryStar, 3, false, core.AlgoOpt},
	}
	for _, c := range cases {
		q := ds.MustQuery(c.kind, c.size, c.satisfied)
		check := func() {
			res, err := core.Check(context.Background(), ds.DB, q, core.Options{Algorithm: c.algo})
			if err != nil {
				t.Fatal(err)
			}
			if res.Satisfied != c.satisfied {
				t.Fatalf("%s: verdict flipped", c.label)
			}
		}
		check() // warm up: plan compile, lazy index builds
		allocs := testing.AllocsPerRun(20, check)
		baseline := fig6aAllocBaselines[c.label]
		t.Logf("%s: %.0f allocs/op (baseline %.0f)", c.label, allocs, baseline)
		if allocs > baseline*1.2 {
			t.Errorf("%s: %.0f allocs/op exceeds baseline %.0f by more than 20%%",
				c.label, allocs, baseline)
		}
	}
}

// fig6bIncrementalSetup builds the clique-dominated workload the
// incremental world maintenance targets: the Fig 6b contention regime,
// where double-spend races dominate the pending set. 150 unconflicted
// chain transactions form the shared universal prefix of every world,
// and 3 committed outputs are contended by 4 pending spenders each, so
// the fd graph is the complete 3-partite K(4,4,4) with 4^3 = 64
// maximal cliques. The query never matches, so the walk is exhaustive
// (every clique's maximal world is visited), and the precheck is
// disabled so the measured cost is the clique search itself. The
// from-scratch baseline (fig6bFromScratch) rebuilds the 150-member
// prefix for each of the 64 worlds; the incremental path builds it
// once and extends by one spender per Bron–Kerbosch edge.
func fig6bIncrementalSetup() (*possible.DB, *query.Query, core.Options) {
	const fillers, groups, spenders = 150, 3, 4
	s := fixture.BitcoinSchema()
	cons := fixture.BitcoinConstraints(s)
	for i := 0; i < fillers; i++ {
		s.MustInsert("TxOut", fixture.TxOut(1, int64(i+1), fmt.Sprintf("F%dPk", i), 1))
	}
	for j := 0; j < groups; j++ {
		s.MustInsert("TxOut", fixture.TxOut(2, int64(j+1), fmt.Sprintf("G%dPk", j), 1))
	}
	var pending []*relation.Transaction
	for i := 0; i < fillers; i++ {
		owner := fmt.Sprintf("F%dPk", i)
		tx := relation.NewTransaction(fmt.Sprintf("F%d", i))
		tx.Add("TxIn", fixture.TxIn(1, int64(i+1), owner, 1, int64(100+i), owner+"Sig"))
		tx.Add("TxOut", fixture.TxOut(int64(100+i), 1, owner+"Chg", 1))
		pending = append(pending, tx)
	}
	for j := 0; j < groups; j++ {
		owner := fmt.Sprintf("G%dPk", j)
		for l := 0; l < spenders; l++ {
			tid := int64(1000 + j*100 + l)
			tx := relation.NewTransaction(fmt.Sprintf("S%d_%d", j, l))
			tx.Add("TxIn", fixture.TxIn(2, int64(j+1), owner, 1, tid, owner+"Sig"))
			tx.Add("TxOut", fixture.TxOut(tid, 1, "SpentPk", 1))
			pending = append(pending, tx)
		}
	}
	d := possible.MustNew(s, cons, pending)
	q := query.MustParse("q() :- TxOut(t, s, 'U9Pk', a)") // matches nothing: exhaustive walk
	return d, q, core.Options{Algorithm: core.AlgoNaive, DisablePrecheck: true}
}

// fig6bFromScratch is the baseline the incremental clique search is
// measured against: it walks the maximal cliques of G^fd_T and, for
// each, rebuilds the clique's maximal world with one reused
// MaximalScratch and evaluates the compiled plan on it in full. It
// reports whether some world satisfies q.
func fig6bFromScratch(d *possible.DB, q *query.Query) (bool, error) {
	plan, err := query.PlanFor(q, d.State)
	if err != nil {
		return false, err
	}
	var ms possible.MaximalScratch
	sc := query.NewScratch()
	hit := false
	graph.MaximalCliques(core.FDGraph(d), func(clique []int) bool {
		world, _ := d.GetMaximalScratch(&ms, clique)
		hit, err = plan.Eval(world, sc)
		return !hit && err == nil
	})
	return hit, err
}

// fig6bModes returns the two sides BenchmarkFig6bIncremental and
// TestFig6bIncrementalGuard compare on the Fig 6b workload: the
// incremental Check and the from-scratch baseline. Each reports
// whether some world violates the constraint.
func fig6bModes() (incremental, scratch func() (bool, error)) {
	d, q, opts := fig6bIncrementalSetup()
	incremental = func() (bool, error) {
		res, err := core.Check(context.Background(), d, q, opts)
		return err == nil && !res.Satisfied, err
	}
	scratch = func() (bool, error) { return fig6bFromScratch(d, q) }
	return incremental, scratch
}

// BenchmarkFig6bIncremental measures the incremental world maintenance
// along the Bron–Kerbosch recursion against the from-scratch baseline
// on the Fig 6b contention workload: same query, same maximal cliques,
// the only difference being whether each clique's world is extended in
// place (push/pop + delta re-probe) or rebuilt and fully re-evaluated.
func BenchmarkFig6bIncremental(b *testing.B) {
	incremental, scratch := fig6bModes()
	for _, mode := range []struct {
		name string
		run  func() (bool, error)
	}{{"incremental", incremental}, {"from-scratch", scratch}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				violated, err := mode.run()
				if err != nil {
					b.Fatal(err)
				}
				if violated {
					b.Fatal("verdict flipped: the exhaustive walk found a violation")
				}
			}
		})
	}
}

// TestFig6bIncrementalGuard is the CI bench-smoke guard for the
// incremental clique search: on the Fig 6b workload the incremental
// Check must beat the from-scratch baseline by more than 1.5x
// (min-of-3 each, interleaved so load drift hits both sides). Gated
// behind BENCH_GUARD like the other timing guards.
func TestFig6bIncrementalGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the Fig6b incremental guard")
	}
	incremental, scratch := fig6bModes()
	timed := func(run func() (bool, error)) time.Duration {
		start := time.Now()
		violated, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if violated {
			t.Fatal("verdict flipped: the exhaustive walk found a violation")
		}
		return time.Since(start)
	}
	// Warm up both paths (plan compile, lazy index builds).
	timed(incremental)
	timed(scratch)
	best := fastest(3,
		func(int) time.Duration { return timed(incremental) },
		func(int) time.Duration { return timed(scratch) })
	inc, base := best[0], best[1]
	t.Logf("incremental=%v from-scratch=%v speedup=%.1fx", inc, base, float64(base)/float64(inc))
	if inc*3/2 > base {
		t.Fatalf("incremental %v is within 1.5x of from-scratch %v — the delta path regressed", inc, base)
	}
}

// attribSetup builds the multi-tenant attribution workload: a moderate
// dataset with a real pending set and a satisfied path query, checked
// with the precheck disabled so every check walks the component search
// — the path that feeds the accountant its cost vector. Checks rotate
// across three tenants like the bcnode churn scenario does.
func attribSetup() (*workload.Dataset, *query.Query, core.Options) {
	ds := workload.Generate(workload.Config{
		Seed: 1, Blocks: 100, TxPerBlock: 4, Users: 500,
		PendingBlocks: 30, PendingTxPerBlock: 12,
		Contradictions: 12, ChainProb: 0.3, MaxOuts: 3,
	})
	q := ds.MustQuery(workload.QueryPath, 3, true)
	return ds, q, core.Options{Algorithm: core.AlgoOpt, DisablePrecheck: true, Workers: 4}
}

// BenchmarkAttributionOverhead measures the cost of per-principal
// attribution on the check path: the same check with the accountant
// recording (on, the default) and with it disabled (off).
func BenchmarkAttributionOverhead(b *testing.B) {
	ds, q, opts := attribSetup()
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	for _, enabled := range []bool{true, false} {
		name := "on"
		if !enabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			obs.DefaultAccountant.SetEnabled(enabled)
			defer obs.DefaultAccountant.SetEnabled(true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := obs.WithPrincipal(context.Background(), tenants[i%len(tenants)], "")
				res, err := core.Check(ctx, ds.DB, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Satisfied {
					b.Fatal("verdict flipped")
				}
			}
		})
	}
}

// TestAttributionOverheadGuard is the CI guard over attribution cost:
// with the accountant recording every check into five space-saving
// sketches plus the admission table, the check path must stay within 5%
// of the accountant-off latency (plus a small absolute floor so
// sub-millisecond noise cannot trip it). Samples interleave on/off so
// machine-load drift hits both sides equally. Gated behind BENCH_GUARD
// like the other timing guards.
func TestAttributionOverheadGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the attribution overhead guard")
	}
	ds, q, opts := attribSetup()
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	check := func(i int, enabled bool) time.Duration {
		obs.DefaultAccountant.SetEnabled(enabled)
		ctx := obs.WithPrincipal(context.Background(), tenants[i%len(tenants)], "")
		start := time.Now()
		res, err := core.Check(ctx, ds.DB, q, opts)
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied {
			t.Fatal("verdict flipped")
		}
		return d
	}
	defer obs.DefaultAccountant.SetEnabled(true)
	for i := 0; i < 3; i++ { // warm up: plan compile, lazy indexes
		check(i, true)
	}
	const samples = 21
	on := make([]time.Duration, 0, samples)
	off := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		on = append(on, check(i, true))
		off = append(off, check(i, false))
	}
	mOn, mOff := medianDuration(on), medianDuration(off)
	t.Logf("attribution on=%v off=%v overhead=%.2f%%", mOn, mOff,
		100*(float64(mOn)/float64(mOff)-1))
	if mOn > mOff+mOff/20 && mOn > mOff+200*time.Microsecond {
		t.Errorf("attribution overhead: on=%v exceeds off=%v by more than 5%%", mOn, mOff)
	}
}

// BenchmarkHarnessTiny exercises the full experiment harness end to end
// at a tiny scale, so regressions in any experiment runner surface in
// benchmarks too.
func BenchmarkHarnessTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range bench.All() {
			if _, err := e.Run(bench.RunOptions{Scale: 0.1, Seed: 2, Repeats: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

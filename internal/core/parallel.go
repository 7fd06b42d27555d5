package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockchaindb/internal/graph"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
)

// searchOutcome is a stopping result from one unit of search work: a
// violating world or an error. Units that finish clean or are filtered
// out produce none. unit is the index of the unit that stopped.
type searchOutcome struct {
	hit     bool
	witness []int
	err     error
	unit    int
}

// runDeterministic runs n units of work, indexed in serial order, and
// resolves them to a schedule-independent outcome: the stopping
// outcome of the lowest-indexed unit that has one, exactly what a
// serial loop over the units would stop at.
//
// With one worker (or at most one unit) the units run inline on the
// caller, in index order, with the caller's context and Stats, and the
// first outcome stops the loop — no goroutine, no per-unit context.
//
// With more, a pool of workers takes units in index order. The naive
// pool — first goroutine to find anything wins — would return
// whichever violation or error the scheduler happened to finish first.
// Instead the pool keeps a bound: the lowest unit index that produced
// a stopping outcome so far. A new stopping outcome at index p lowers
// the bound and cancels only the running units *above* p; units above
// the bound that have not started are skipped. Every unit below the
// final bound runs to completion, so the winning outcome depends only
// on the data, never on goroutine timing. Each unit's context is
// created when the unit starts. A unit cut short by a context error
// proves nothing and is dropped; per-worker Stats, busy time included,
// are folded into stats via Stats.Merge.
//
// A nil return means every unit completed without a stopping outcome;
// an outcome holding a context error means the parent ctx was
// cancelled before the units could decide.
func runDeterministic(ctx context.Context, n, workers int, stats *Stats, run func(ctx context.Context, i int, local *Stats) *searchOutcome) *searchOutcome {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if o := run(ctx, i, stats); o != nil {
				o.unit = i
				return o
			}
		}
	} else if o := runPool(ctx, n, workers, stats, run); o != nil {
		return o
	}
	if err := ctx.Err(); err != nil {
		return &searchOutcome{err: err}
	}
	return nil
}

// runPool is runDeterministic's multi-worker schedule.
func runPool(ctx context.Context, n, workers int, stats *Stats, run func(ctx context.Context, i int, local *Stats) *searchOutcome) *searchOutcome {
	stats.WorkersUsed = workers
	var (
		mu       sync.Mutex // guards bound, cancels, outcomes, and stats
		bound    = n
		cancels  = make([]context.CancelFunc, n) // running units only
		outcomes = make([]*searchOutcome, n)
		next     atomic.Int64
	)
	start := func(i int) (context.Context, context.CancelFunc) {
		mu.Lock()
		defer mu.Unlock()
		if i > bound {
			return nil, nil // above the bound: cannot affect the result
		}
		uctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		return uctx, cancel
	}
	finish := func(i int, o *searchOutcome) {
		mu.Lock()
		defer mu.Unlock()
		cancels[i] = nil
		if o == nil || (!o.hit && isCtxErr(o.err)) || i >= bound {
			return
		}
		o.unit = i
		outcomes[i] = o
		bound = i
		for _, cancel := range cancels[i+1:] {
			if cancel != nil {
				cancel()
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	runStart := time.Now()
	var busyNS atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			// Busy gauge: decremented on every exit path, panic
			// included, so a crashed worker cannot leave it stuck high.
			gPoolBusy.Add(1)
			defer gPoolBusy.Add(-1)
			defer wg.Done()
			var local Stats
			busyStart := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				uctx, cancel := start(i)
				if uctx == nil {
					continue
				}
				o := runRecovered(uctx, i, &local, run)
				cancel()
				finish(i, o)
			}
			local.WorkerBusy = time.Since(busyStart)
			busyNS.Add(int64(local.WorkerBusy))
			mu.Lock()
			stats.Merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Utilization of the pool that just drained: summed busy time over
	// wall × workers, in permille (a gauge holds integers).
	if wall := time.Since(runStart); wall > 0 {
		permille := busyNS.Load() * 1000 / (int64(wall) * int64(workers))
		gPoolUtil.Set(permille)
		hPoolSat.Observe(permille)
	}
	if bound < n {
		return outcomes[bound]
	}
	return nil
}

// runRecovered runs one unit on a pool worker and turns a panic into
// the unit's error: a worker goroutine has no caller that could
// recover it, so an unrecovered panic would kill the process. The
// serial-order bound then treats it like any other unit error.
func runRecovered(ctx context.Context, i int, local *Stats, run func(ctx context.Context, i int, local *Stats) *searchOutcome) (o *searchOutcome) {
	defer func() {
		if r := recover(); r != nil {
			o = &searchOutcome{err: fmt.Errorf("core: search unit %d panicked: %v", i, r)}
		}
	}()
	return run(ctx, i, local)
}

// branchesPerWorker oversizes the branch split relative to the pool so
// uneven subtrees rebalance: with several branches per worker, a
// goroutine finishing a small subtree picks up another instead of
// idling behind the largest.
const branchesPerWorker = 4

// searchComponents is the one clique-search loop behind NaiveDCSat
// and OptDCSat: for each component, for each maximal clique of its fd
// graph, evaluate q on the clique's maximal world, stopping at the
// first violation or error. It runs the loop as a single
// runDeterministic queue indexed in serial order, so any worker count
// reports what the serial loop would.
//
// A unit is normally one component, worked lazily when dequeued: the
// covers filter, the split-table lookup, the fd-graph build, then one
// cliqueSearch walked from the graph's root branch, whose verdict is
// stored back. A lone component with more than one worker has nothing
// to share at that grain, so it is filtered, looked up and built once
// up front, and its CliqueBranches — which partition its maximal
// cliques, in the order the whole walk reaches them — become the units
// instead; its verdict is stored once all branches resolve. A
// violation leaves the later components unreached; their table entries
// are re-stamped as still current.
func searchComponents(ctx context.Context, d *possible.DB, q *query.Query, groups [][]int, targets []atomFilter, workers int, env checkEnv, stats *Stats) *searchOutcome {
	var (
		split    *fdCompGraph
		splitKey string
		branches []graph.CliqueBranch
	)
	n := len(groups)
	if n == 1 && workers > 1 {
		comp := groups[0]
		if !covers(d, comp, targets) {
			return nil
		}
		stats.ComponentsCovered++
		o, key, ok := env.cached(comp, stats)
		if ok {
			return o
		}
		splitKey = key
		split = env.buildGraph(comp, stats)
		splitStart := time.Now()
		branches = graph.CliqueBranches(split.g, workers*branchesPerWorker)
		stats.CliqueDur += time.Since(splitStart)
		n = len(branches)
	}
	o := runDeterministic(ctx, n, workers, stats, func(uctx context.Context, i int, local *Stats) *searchOutcome {
		if split != nil {
			return newCliqueSearch(uctx, d, split, env, local).walk(branches[i])
		}
		comp := groups[i]
		if !covers(d, comp, targets) {
			return nil
		}
		local.ComponentsCovered++
		o, key, ok := env.cached(comp, local)
		if ok {
			return o
		}
		cg := env.buildGraph(comp, local)
		o = newCliqueSearch(uctx, d, cg, env, local).walk(graph.RootBranch(cg.g))
		env.remember(key, o)
		return o
	})
	if split != nil {
		env.remember(splitKey, o)
	} else if o != nil && o.hit {
		env.restamp(groups[o.unit+1:])
	}
	return o
}

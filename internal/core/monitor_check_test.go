package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blockchaindb/internal/fixture"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// TestMonitorCheckInstrumented: Monitor.Check must flow through the
// same pipeline as a standalone Check — populated Stats, metrics in the
// default registry, stage histograms observed. The old implementation
// bypassed all of it.
func TestMonitorCheckInstrumented(t *testing.T) {
	mon := NewMonitor(fixture.PaperDB())
	q := query.MustParse("q() :- TxOut(t, s, pk, a), a > 100")
	before := obs.Default.Snapshot()
	res, err := mon.Check(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	if res.Stats.Duration <= 0 {
		t.Error("Stats.Duration not recorded")
	}
	if res.Stats.Algorithm == AlgoAuto {
		t.Errorf("Stats.Algorithm not resolved: %v", res.Stats.Algorithm)
	}
	if got := after.Counters["dcsat_checks_total"] - before.Counters["dcsat_checks_total"]; got != 1 {
		t.Errorf("dcsat_checks_total advanced by %d, want 1", got)
	}
	if got := after.Histograms["dcsat_check_ns"].Count - before.Histograms["dcsat_check_ns"].Count; got != 1 {
		t.Errorf("dcsat_check_ns count advanced by %d, want 1", got)
	}
	if got := after.Histograms["dcsat_precheck_ns"].Count - before.Histograms["dcsat_precheck_ns"].Count; got != 1 {
		t.Errorf("dcsat_precheck_ns count advanced by %d, want 1", got)
	}
}

// TestMonitorCheckFrontDoor: Monitor.Check must apply the same input
// validation and simplification as the standalone entry point.
func TestMonitorCheckFrontDoor(t *testing.T) {
	mon := NewMonitor(fixture.PaperDB())

	// Non-Boolean query (head variable) is rejected.
	nb := query.MustParse("q(x) :- TxOut(t, s, pk, x)")
	if _, err := mon.Check(context.Background(), nb, Options{}); err == nil {
		t.Error("non-Boolean query accepted")
	}

	// Unknown relation is rejected against the monitor's schema.
	unk := query.MustParse("q() :- Nope(x)")
	if _, err := mon.Check(context.Background(), unk, Options{}); err == nil {
		t.Error("query over unknown relation accepted")
	}

	// A trivially false comparison is decided by Simplify without any
	// search: satisfied, flagged as prechecked, zero worlds evaluated.
	triv := query.MustParse("q() :- TxOut(t, s, pk, a), 1 > 2")
	res, err := mon.Check(context.Background(), triv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied || !res.Stats.Prechecked {
		t.Errorf("trivially false query: satisfied=%v prechecked=%v", res.Satisfied, res.Stats.Prechecked)
	}
	if res.Stats.WorldsEvaluated != 0 {
		t.Errorf("trivially false query evaluated %d worlds", res.Stats.WorldsEvaluated)
	}
}

// TestMonitorCheckTraced: a traced context passed to
// Monitor.Check produces the standard dcsat_check span tree.
func TestMonitorCheckTraced(t *testing.T) {
	mon := NewMonitor(fixture.PaperDB())
	q := query.MustParse("q() :- TxOut(t, s, pk, a), a > 100")
	ctx, root := obs.StartTrace(context.Background(), "test")
	if _, err := mon.Check(ctx, q, Options{Algorithm: AlgoOpt, DisablePrecheck: true}); err != nil {
		t.Fatal(err)
	}
	root.End()
	var found *obs.Span
	for _, c := range root.Children() {
		if c.Name() == "dcsat_check" {
			found = c
		}
	}
	if found == nil {
		t.Fatal("no dcsat_check span under the traced monitor check")
	}
	if v, ok := found.Attr("algorithm"); !ok || v != "opt" {
		t.Errorf("algorithm attr = %v (ok=%v), want opt", v, ok)
	}
	stages := map[string]bool{}
	for _, c := range found.Children() {
		stages[c.Name()] = true
	}
	if stages["sweep"] {
		// The delta sweep replaces the live_filter/component_split/search
		// stages with a single reconcile stage; its span stands in for
		// them on eligible monitor checks.
		return
	}
	for _, want := range []string{"live_filter", "component_split", "search"} {
		if !stages[want] {
			t.Errorf("stage span %q missing under monitor check (have %v)", want, stages)
		}
	}
}

// TestMonitorCheckDeadline: deadlines apply to monitor checks too.
func TestMonitorCheckDeadline(t *testing.T) {
	mon := NewMonitor(fixture.PaperDB())
	q := query.MustParse("q() :- TxOut(t, s, pk, a)")
	res, err := mon.Check(context.Background(), q, Options{Deadline: time.Now().Add(-time.Second)})
	if res == nil || !errors.Is(err, ErrUndecided) {
		t.Fatalf("res=%v err=%v, want partial Result with ErrUndecided", res, err)
	}
}

// TestMonitorCheckUsesConflictGraph: the monitor's incrementally
// maintained conflict pairs feed the clique search (no per-check
// FD-graph rebuild), including under parallel workers.
func TestMonitorCheckUsesConflictGraph(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	d := bitcoinLikeDB(r)
	mon := NewMonitor(d)
	q := query.MustParse("q() :- TxOut(t, s, 'U0Pk', a)")
	want, err := Check(context.Background(), d, q, Options{Algorithm: AlgoNaive})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Algorithm: AlgoNaive},
		{Algorithm: AlgoNaive, Workers: 4},
		{Algorithm: AlgoOpt, Workers: 4},
	} {
		got, err := mon.Check(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if got.Satisfied != want.Satisfied {
			t.Fatalf("opts %+v: satisfied %v, standalone %v", opts, got.Satisfied, want.Satisfied)
		}
	}
}

// TestMonitorConcurrentOps drives AddPending/DropPending/Commit/Check
// from concurrent goroutines; run under -race this is the regression
// test for the monitor's locking across the new parallel check path.
func TestMonitorConcurrentOps(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	mon := NewMonitor(bitcoinLikeDB(r))
	queries := []*query.Query{
		query.MustParse("q() :- TxOut(t, s, 'U0Pk', a)"),
		query.MustParse("q() :- TxIn(pt, ps, 'U1Pk', a, nt, sig), TxOut(nt, s2, pk2, a2)"),
	}
	var wg sync.WaitGroup
	// Checker goroutines, serial and parallel.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Options{Workers: 1 + i}
			for n := 0; n < 25; n++ {
				if _, err := mon.Check(context.Background(), queries[n%len(queries)], opts); err != nil {
					t.Errorf("check: %v", err)
					return
				}
			}
		}(i)
	}
	// Mutator goroutines: add, then drop or commit their own ids.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				txNum := int64(1000 + g*100 + n)
				tx := relation.NewTransaction(fmt.Sprintf("G%dN%d", g, n)).
					Add("TxOut", fixture.TxOut(txNum, 1, fmt.Sprintf("U%dPk", g), 1))
				id, err := mon.AddPending(tx)
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				switch n % 3 {
				case 0:
					if err := mon.DropPending(id); err != nil {
						t.Errorf("drop: %v", err)
						return
					}
				case 1:
					if mon.Appendable(id) {
						if err := mon.Commit(id); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// The monitor must still be coherent: a final check succeeds.
	if _, err := mon.Check(context.Background(), queries[0], Options{Workers: 4}); err != nil {
		t.Fatalf("final check: %v", err)
	}
}

// TestMonitorCheckCompilesOnce: the plan cache is keyed by the
// simplified query's text and the schema set, so repeated checks of one
// constraint compile it once per tenant — Simplify's fresh *Query per
// check must not miss — and two tenants with identical constraint text
// over different schemas keep one plan each instead of evicting each
// other.
func TestMonitorCheckCompilesOnce(t *testing.T) {
	// A constraint text no other test compiles, so earlier cache
	// entries cannot answer it. The precheck hits (the paper database
	// has U2Pk outputs), so the clique search runs as well.
	q := query.MustParse("q() :- TxOut(t, s, 'U2Pk', a), TxIn(t, s, 'U2Pk', a, nt, sig), a >= 4")
	tenants := []*Monitor{
		NewMonitor(fixture.PaperDB(), WithTenant("a")),
		NewMonitor(fixture.PaperDB(), WithTenant("b")),
	}
	restartPlanCache(t, tenants[0].db.State)
	misses := func() int64 { return obs.Default.Snapshot().Counters[obs.MetricQueryPlanCacheMiss] }
	before := misses()
	for i := 0; i < 5; i++ {
		for _, mon := range tenants {
			if _, err := mon.Check(context.Background(), q, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := misses() - before; got != int64(len(tenants)) {
		t.Errorf("%d checks over %d tenants compiled %d plans, want one per tenant", 5*len(tenants), len(tenants), got)
	}
}

// restartPlanCache compiles throwaway plans until the plan cache
// reaches its cap and drops everything (query.PlanFor), so that a test
// counting compilations starts far from the cap, whatever earlier tests
// compiled. Otherwise a test starting one plan short of the cap sees
// its own first plan dropped and compiled again.
func restartPlanCache(t *testing.T, v relation.View) {
	t.Helper()
	sentinel := query.MustParse("q() :- TxOut(t, s, 'PlanCacheSentinel', a)")
	first, err := query.PlanFor(sentinel, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*256; i++ {
		filler := query.MustParse(fmt.Sprintf("q() :- TxOut(t, s, 'PlanCacheFiller%d', a)", i))
		if _, err := query.PlanFor(filler, v); err != nil {
			t.Fatal(err)
		}
		if p, _ := query.PlanFor(sentinel, v); p != first {
			return
		}
	}
	t.Fatal("the plan cache never dropped the sentinel plan")
}

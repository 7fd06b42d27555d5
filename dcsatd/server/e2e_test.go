package server

// End-to-end daemon lifecycle tests: a real listener (obs.Serve on a
// free port), the real Go client, and the real engine underneath.
// These are internal tests (package server) so the drain test can use
// the beforeCheck hook to hold a check in flight.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blockchaindb/dcsatd/api"
	"blockchaindb/dcsatd/client"
	"blockchaindb/internal/obs"
)

// bootServer starts a Server on a free port and returns a client for
// it. The HTTP listener is shut down at test end; tenants registered
// by the test are the test's own job to deregister (budgets live in
// the process-wide accountant).
func bootServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	httpSrv, addr, err := obs.Serve("127.0.0.1:0", obs.Default, nil, s.Mount)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	})
	obs.SetReady(true) // mirror cmd/dcsatd's post-listen flip
	return s, client.New("http://" + addr.String())
}

// doubleSpendTenant is a minimal explicit registration shaped like the
// paper's Example 1: two pending transactions paying the same victim,
// so the "paid twice" query is violated with both as witness.
func doubleSpendTenant(name string) *api.RegisterRequest {
	return &api.RegisterRequest{
		Tenant:  name,
		Schemas: []api.SchemaSpec{{Name: "TxOut", Columns: []string{"txId:int", "ser:int", "pk:string", "amount:int"}}},
		FDs:     []api.FDSpec{{Rel: "TxOut", LHS: []string{"txId", "ser"}}},
		State: []api.TxSpec{{Name: "genesis", Inserts: []api.Insert{
			{Rel: "TxOut", Rows: []api.Row{{int64(1), int64(1), "PayerPk", int64(500)}}},
		}}},
		Pending: []api.TxSpec{
			{Name: "pay1", Inserts: []api.Insert{{Rel: "TxOut", Rows: []api.Row{{int64(2), int64(1), "VictimPk", int64(100)}}}}},
			{Name: "pay2", Inserts: []api.Insert{{Rel: "TxOut", Rows: []api.Row{{int64(3), int64(1), "VictimPk", int64(100)}}}}},
		},
		Queries: map[string]string{
			"hot":  "qs() :- TxOut(n1, s1, 'VictimPk', a1), TxOut(n2, s2, 'VictimPk', a2), n1 != n2",
			"cold": "qs() :- TxOut(n, s, 'GhostPk', a)",
		},
	}
}

func TestDaemonLifecycle(t *testing.T) {
	_, c := bootServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, doubleSpendTenant("e2e"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, "e2e") })
	if reg.StateTuples != 1 || reg.Pending != 2 || reg.FDs != 1 || reg.INDs != 0 {
		t.Fatalf("register response off: %+v", reg)
	}
	if len(reg.PendingIDs) != 2 {
		t.Fatalf("want 2 pending ids, got %v", reg.PendingIDs)
	}
	if got, want := fmt.Sprint(reg.Queries), "[cold hot]"; got != want {
		t.Fatalf("queries = %s, want %s", got, want)
	}

	// Duplicate registration conflicts.
	if _, err := c.Register(ctx, doubleSpendTenant("e2e")); err == nil {
		t.Fatal("duplicate register succeeded")
	} else if ae := asAPIErr(t, err); ae.Code != api.CodeConflict {
		t.Fatalf("duplicate register code = %s, want conflict", ae.Code)
	}

	// The hot query is violated with both payments as witness.
	hot, err := c.Check(ctx, "e2e", &api.CheckRequest{Name: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Satisfied || hot.Undecided {
		t.Fatalf("hot check: %+v", hot)
	}
	if len(hot.Witness) != 2 {
		t.Fatalf("hot witness = %v, want both payments", hot.Witness)
	}
	if hot.Stats.Algorithm == "" || hot.Stats.DurationNS <= 0 {
		t.Fatalf("stats not populated: %+v", hot.Stats)
	}

	// The cold query is satisfied.
	cold, err := c.Check(ctx, "e2e", &api.CheckRequest{Name: "cold"})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Satisfied {
		t.Fatalf("cold check not satisfied: %+v", cold)
	}

	// Inline queries work too.
	inline, err := c.Check(ctx, "e2e", &api.CheckRequest{Query: "qs() :- TxOut(n, s, 'VictimPk', a), a > 1000"})
	if err != nil {
		t.Fatal(err)
	}
	if !inline.Satisfied {
		t.Fatalf("inline check not satisfied: %+v", inline)
	}

	// Stream deltas: add a third payment to the victim, then drop it;
	// commit one of the originals and watch the pending set shrink.
	add := &api.TxSpec{Name: "pay3", Inserts: []api.Insert{{Rel: "TxOut", Rows: []api.Row{{int64(4), int64(1), "VictimPk", int64(100)}}}}}
	dr, err := c.Deltas(ctx, "e2e", &api.DeltaRequest{Ops: []api.DeltaOp{{Op: api.OpAdd, Tx: add}}})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Applied != 1 || dr.Failed != 0 || dr.Pending != 3 {
		t.Fatalf("add delta: %+v", dr)
	}
	addedID := dr.Results[0].ID
	dr, err = c.Deltas(ctx, "e2e", &api.DeltaRequest{Ops: []api.DeltaOp{
		{Op: api.OpDrop, ID: addedID},
		{Op: api.OpCommit, ID: reg.PendingIDs[0]},
		{Op: api.OpDrop, ID: 9999}, // unknown id: fails without aborting the batch
	}})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Applied != 2 || dr.Failed != 1 || dr.Pending != 1 {
		t.Fatalf("drop/commit delta: %+v", dr)
	}
	if dr.Results[2].Error == "" {
		t.Fatal("unknown-id drop reported no error")
	}

	// With pay1 committed and only pay2 pending, the hot query is
	// violated by the state+pending combination still.
	hot2, err := c.Check(ctx, "e2e", &api.CheckRequest{Name: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	if hot2.Satisfied {
		t.Fatal("hot query satisfied after commit of one payment")
	}

	// Concurrent checks against one tenant.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, err := c.Check(ctx, "e2e", &api.CheckRequest{Name: "cold"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Status reflects the traffic.
	st, err := c.Status(ctx, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 || st.ChecksServed < 36 {
		t.Fatalf("status: %+v", st)
	}
	ls, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range ls.Tenants {
		found = found || s.Tenant == "e2e"
	}
	if !found {
		t.Fatalf("tenant missing from list: %+v", ls)
	}

	// Error paths: unknown tenant, unknown query, bad query.
	if _, err := c.Check(ctx, "nope", &api.CheckRequest{Name: "hot"}); asAPIErr(t, err).Code != api.CodeNotFound {
		t.Fatal("unknown tenant not 404")
	}
	if _, err := c.Check(ctx, "e2e", &api.CheckRequest{Name: "nope"}); asAPIErr(t, err).Code != api.CodeNotFound {
		t.Fatal("unknown query not 404")
	}
	if _, err := c.Check(ctx, "e2e", &api.CheckRequest{Query: "not a query"}); asAPIErr(t, err).Code != api.CodeBadRequest {
		t.Fatal("bad query not 400")
	}

	// Deregister; the tenant is gone.
	if err := c.Deregister(ctx, "e2e"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(ctx, "e2e", &api.CheckRequest{Name: "hot"}); asAPIErr(t, err).Code != api.CodeNotFound {
		t.Fatal("checked a deregistered tenant")
	}
}

func asAPIErr(t *testing.T, err error) *api.Error {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("not an api error: %v", err)
	}
	return ae
}

// TestDeadlinePropagation: a 1ms deadline on an exhaustive-algorithm
// check over a generated workload (2^pending worlds to enumerate for a
// satisfied verdict) must come back undecided, not hang.
func TestDeadlinePropagation(t *testing.T) {
	_, c := bootServer(t, Config{})
	ctx := context.Background()
	reg, err := c.Register(ctx, &api.RegisterRequest{
		Tenant:   "deadline",
		Workload: &api.WorkloadSpec{Seed: 11, PendingBlocks: 4, PendingTxPerBlock: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, "deadline") })
	if reg.Plant == nil || reg.Plant.AbsentPk == "" {
		t.Fatalf("no plant info: %+v", reg)
	}
	resp, err := c.Check(ctx, "deadline", &api.CheckRequest{
		Query:     fmt.Sprintf("qs() :- TxOut(n, s, '%s', a)", reg.Plant.AbsentPk),
		TimeoutMS: 1,
		Algorithm: "exhaustive",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Undecided {
		t.Fatalf("1ms exhaustive check decided: %+v", resp)
	}
	if resp.Stats.DurationNS <= 0 {
		t.Fatalf("undecided response carries no partial stats: %+v", resp.Stats)
	}
}

// TestAdmissionThrottleShed forces the OK → THROTTLE → SHED ladder at
// a low budget by recording synthetic cost against the tenant's
// bucket (deterministic, unlike racing real check costs), and checks
// the transitions are observable via the API, /debug/attrib, and the
// journal.
func TestAdmissionThrottleShed(t *testing.T) {
	_, c := bootServer(t, Config{})
	ctx := context.Background()
	const tenant = "metered"
	req := doubleSpendTenant(tenant)
	// Tiny refill so recorded debits dominate; burst 500 puts the
	// throttle band at (-500, 0] and shed at or below -500.
	req.BudgetUnitsPerSec = 10
	req.BudgetBurst = 500
	if _, err := c.Register(ctx, req); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, tenant) })

	// Level starts at burst: the first check is admitted.
	if _, err := c.Check(ctx, tenant, &api.CheckRequest{Name: "cold"}); err != nil {
		t.Fatalf("within-burst check rejected: %v", err)
	}

	debit := func(units int64) {
		obs.DefaultAccountant.Record(obs.CheckCost{
			Principal: obs.Principal{Tenant: tenant},
			Cost:      obs.CostVector{WallNS: units * 1000}, // Units() counts wall µs
		})
	}

	// Drive the level into the throttle band.
	debit(600)
	_, err := c.Check(ctx, tenant, &api.CheckRequest{Name: "cold"})
	ae := asAPIErr(t, err)
	if ae.Code != api.CodeThrottled {
		t.Fatalf("code = %s, want throttled", ae.Code)
	}
	if ae.RetryAfterMS <= 0 {
		t.Fatalf("throttled without retry hint: %+v", ae)
	}

	// And past the shed line.
	debit(600)
	_, err = c.Check(ctx, tenant, &api.CheckRequest{Name: "cold"})
	if ae := asAPIErr(t, err); ae.Code != api.CodeShed {
		t.Fatalf("code = %s, want shed", ae.Code)
	}

	// The transition is visible on /debug/attrib...
	dump := obs.DumpAttrib(obs.DefaultAccountant, 0)
	var status *obs.AdmitStatus
	for i := range dump.Admit {
		if dump.Admit[i].Tenant == tenant {
			status = &dump.Admit[i]
		}
	}
	if status == nil || status.Decision != "shed" {
		t.Fatalf("admit status = %+v, want shed for %s", status, tenant)
	}
	// ...and in the journal as admit_decision transitions.
	seen := map[string]bool{}
	for _, ev := range obs.DefaultJournal.Snapshot() {
		if ev.Type != obs.EvAdmitDecision {
			continue
		}
		var evTenant, dec string
		for _, f := range ev.Attrs {
			switch f.Key {
			case "tenant":
				evTenant, _ = f.Val.(string)
			case "decision":
				dec, _ = f.Val.(string)
			}
		}
		if evTenant == tenant {
			seen[dec] = true
		}
	}
	if !seen["throttle"] || !seen["shed"] {
		t.Fatalf("journal transitions seen = %v, want throttle and shed", seen)
	}
}

// TestGracefulDrain holds a check in flight, begins a drain, and
// verifies new checks are rejected while the in-flight one completes
// and Drain returns only after it has.
func TestGracefulDrain(t *testing.T) {
	s, c := bootServer(t, Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, doubleSpendTenant("drain")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, "drain") })

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.beforeCheck = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	type result struct {
		resp *api.CheckResponse
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := c.Check(ctx, "drain", &api.CheckRequest{Name: "hot"})
		inflight <- result{resp, err}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("check never reached the engine")
	}

	s.BeginDrain()
	if obs.Ready() {
		t.Fatal("still ready while draining")
	}

	// New checks are rejected with a retryable draining error.
	s.beforeCheck = nil
	_, err := c.Check(ctx, "drain", &api.CheckRequest{Name: "cold"})
	ae := asAPIErr(t, err)
	if ae.Code != api.CodeDraining || !ae.IsRetryable() {
		t.Fatalf("during drain: %+v", ae)
	}

	// Drain waits for the held check.
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	if err := s.Drain(shortCtx); err == nil {
		t.Fatal("Drain returned with a check still in flight")
	}
	cancel()
	close(release)
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight check failed across drain: %v", res.err)
	}
	if res.resp.Satisfied {
		t.Fatal("in-flight hot check lost its verdict")
	}
	obs.SetReady(true) // restore for other tests in the package
}

// TestOpsSurface: the daemon's listener serves the obs introspection
// endpoints next to the v1 API.
func TestOpsSurface(t *testing.T) {
	_, c := bootServer(t, Config{})
	if err := c.Ready(context.Background()); err != nil {
		t.Fatal(err)
	}
	// /healthz itself may legitimately be 503 here: earlier tests in
	// this package produce undecided checks on purpose, which trips
	// the undecided-ratio SLO — so only the always-on endpoints are
	// asserted 200.
	for _, path := range []string{"/metrics", "/debug/attrib", "/debug/journal", "/debug/vars"} {
		resp, err := http.Get(c.Base() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, body)
		}
	}
	// The serving metrics are registered and exported.
	resp, err := http.Get(c.Base() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{obs.MetricServedChecks, obs.MetricServedTenants, obs.MetricServedCheckNS} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// TestConcurrentChecksAndDrops races witness-returning checks against
// drops that shift the pending slots. The two victim payments are the
// only violating pair and sit behind 60 unrelated fillers, so every
// check must answer violated with exactly their ids — a witness mapped
// from slots after a drop would name fillers or index past the pending
// set (a handler panic, seen by the client as a failed request).
func TestConcurrentChecksAndDrops(t *testing.T) {
	_, c := bootServer(t, Config{})
	ctx := context.Background()
	const fillers = 60
	req := doubleSpendTenant("race")
	var pending []api.TxSpec
	for i := 0; i < fillers; i++ {
		pending = append(pending, api.TxSpec{Name: fmt.Sprintf("filler%d", i), Inserts: []api.Insert{
			{Rel: "TxOut", Rows: []api.Row{{int64(100 + i), int64(1), fmt.Sprintf("Filler%dPk", i), int64(1)}}}}})
	}
	req.Pending = append(pending, req.Pending...)
	reg, err := c.Register(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, "race") })
	if len(reg.PendingIDs) != fillers+2 {
		t.Fatalf("want %d pending ids, got %d", fillers+2, len(reg.PendingIDs))
	}
	victims := fmt.Sprint(reg.PendingIDs[fillers:])

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := c.Check(ctx, "race", &api.CheckRequest{Name: "hot"})
				if err != nil {
					errs <- fmt.Errorf("check: %w", err)
					return
				}
				if resp.Satisfied || fmt.Sprint(resp.Witness) != victims {
					errs <- fmt.Errorf("check: satisfied=%v witness %v, want violated with %s",
						resp.Satisfied, resp.Witness, victims)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range reg.PendingIDs[:fillers] {
			if _, err := c.Deltas(ctx, "race", &api.DeltaRequest{Ops: []api.DeltaOp{{Op: api.OpDrop, ID: id}}}); err != nil {
				errs <- fmt.Errorf("drop %d: %w", id, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHandlerPanicRecovered: a panic under a check answers with the
// 500 internal envelope and a server_panic journal event instead of a
// dropped connection, releases every in-flight counter, and leaves the
// server serving the next check.
func TestHandlerPanicRecovered(t *testing.T) {
	s := New(Config{})
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.Register(ctx, doubleSpendTenant("panic")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, "panic") })

	before := obs.DefaultJournal.TotalAppended()
	s.beforeCheck = func() { panic("injected check panic") }
	resp, err := http.Post(ts.URL+api.Prefix+"/tenants/panic/check", "application/json",
		strings.NewReader(`{"name":"hot"}`))
	if err != nil {
		t.Fatalf("panicking check dropped the connection: %v", err)
	}
	var env api.Error
	decErr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || decErr != nil || env.Code != api.CodeInternal {
		t.Fatalf("panicking check: HTTP %d, envelope %+v (decode err %v), want 500 %s",
			resp.StatusCode, env, decErr, api.CodeInternal)
	}

	if n := s.inflightN.Load(); n != 0 {
		t.Errorf("handler in-flight count = %d after the panic, want 0", n)
	}
	if n := len(s.inflight); n != 0 {
		t.Errorf("check slots held = %d after the panic, want 0", n)
	}
	if v := gInflight.Value(); v != 0 {
		t.Errorf("%s = %d after the panic, want 0", obs.MetricServedInflight, v)
	}

	var journaled bool
	for _, ev := range obs.DefaultJournal.Snapshot() {
		if ev.Type != obs.EvServerPanic || ev.Seq < before {
			continue
		}
		for _, f := range ev.Attrs {
			if f.Key == "panic" && f.Val == "injected check panic" {
				journaled = true
			}
		}
	}
	if !journaled {
		t.Error("no server_panic journal event for the injected panic")
	}

	s.beforeCheck = nil
	got, err := c.Check(ctx, "panic", &api.CheckRequest{Name: "hot"})
	if err != nil {
		t.Fatalf("check after the panic: %v", err)
	}
	if got.Satisfied {
		t.Fatal("check after the panic lost its verdict")
	}
}

// TestRegisterNegativeCacheEntriesDisablesReuse: a tenant registered
// with a negative cache_entries gets a Monitor with verdict reuse off,
// so repeated checks leave every store counter at zero.
func TestRegisterNegativeCacheEntriesDisablesReuse(t *testing.T) {
	_, c := bootServer(t, Config{})
	ctx := context.Background()
	req := doubleSpendTenant("nocache")
	req.CacheEntries = -1
	if _, err := c.Register(ctx, req); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Deregister(ctx, "nocache") })
	for i := 0; i < 2; i++ {
		res, err := c.Check(ctx, "nocache", &api.CheckRequest{Name: "hot"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfied || res.Stats.ComponentsCached != 0 {
			t.Fatalf("check %d: %+v, want a violation searched afresh", i, res)
		}
	}
	st, err := c.Status(ctx, "nocache")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache != (api.CacheStatus{}) {
		t.Fatalf("cache status %+v, want all zero with reuse disabled", st.Cache)
	}
}

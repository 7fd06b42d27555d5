package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"blockchaindb/dcsatd/api"
	"blockchaindb/internal/core"
	"blockchaindb/internal/obs"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// maxBodyBytes caps every request body. The largest body the
// benchmark's serve workload sends is a ~41 KB registration (a 40-block
// state with 66 pending transactions), so the cap leaves room for
// registrations three orders of magnitude larger while bounding what
// one request can make the decoder buffer.
const maxBodyBytes = 64 << 20

// decode reads a JSON request body of at most maxBodyBytes with number
// fidelity: integers arrive as json.Number and survive the trip into
// engine values exactly (see toValue).
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.UseNumber()
	return dec.Decode(v)
}

// writeJSON writes a 200 response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}

// httpStatus maps the wire error codes onto HTTP statuses.
func httpStatus(code string) int {
	switch code {
	case api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodeNotFound:
		return http.StatusNotFound
	case api.CodeConflict:
		return http.StatusConflict
	case api.CodeTenantLimit, api.CodeThrottled:
		return http.StatusTooManyRequests
	case api.CodeShed, api.CodeBackpressure, api.CodeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// fail writes an api.Error envelope. A nonzero retry sets both the
// Retry-After header (whole seconds, rounded up so zero never leaks)
// and the millisecond-precision field in the body.
func fail(w http.ResponseWriter, code, msg string, retry time.Duration) {
	e := api.Error{Code: code, Message: msg}
	if retry > 0 {
		e.RetryAfterMS = retry.Milliseconds()
		secs := (retry + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(secs)))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(httpStatus(code))
	_ = json.NewEncoder(w).Encode(&e)
}

func toInt64s(ids []int) []int64 {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// handleRegister creates a tenant: build D = (R, I, T) from the
// explicit specs or a generated workload, compile the named queries,
// wrap it all in a Monitor, and set the admission budget.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	if s.draining.Load() {
		fail(w, api.CodeDraining, "server is draining", time.Second)
		return
	}
	var req api.RegisterRequest
	if err := decode(w, r, &req); err != nil {
		fail(w, api.CodeBadRequest, "bad register body: "+err.Error(), 0)
		return
	}
	if req.Tenant == "" {
		fail(w, api.CodeBadRequest, "tenant name required", 0)
		return
	}
	var (
		db    *possible.DB
		plant *api.PlantInfo
		err   error
	)
	if req.Workload != nil {
		if len(req.Schemas) > 0 || len(req.State) > 0 || len(req.Pending) > 0 {
			fail(w, api.CodeBadRequest, "specify either explicit schemas/state or a workload, not both", 0)
			return
		}
		db, plant, err = generateDatabase(req.Workload)
	} else {
		db, err = buildDatabase(&req)
	}
	if err != nil {
		fail(w, api.CodeBadRequest, err.Error(), 0)
		return
	}
	queries := make(map[string]*query.Query, len(req.Queries))
	for name, src := range req.Queries {
		q, qerr := query.Parse(src)
		if qerr != nil {
			fail(w, api.CodeBadRequest, fmt.Sprintf("query %q: %v", name, qerr), 0)
			return
		}
		queries[name] = q
	}
	mopts := []core.MonitorOption{core.WithTenant(req.Tenant)}
	if req.CacheEntries != 0 {
		mopts = append(mopts, core.WithCache(req.CacheEntries))
	}
	tn := &tenant{
		name:        req.Tenant,
		mon:         core.NewMonitor(db, mopts...),
		workers:     req.Workers,
		queries:     queries,
		budgetUnits: req.BudgetUnitsPerSec,
		budgetBurst: req.BudgetBurst,
	}
	// Read what the response reports before the tenant is published:
	// once it is in the table, deltas can reach its monitor.
	pendingIDs, stateTuples := tn.mon.PendingIDs(), db.State.Size()
	s.mu.Lock()
	if _, dup := s.tenants[req.Tenant]; dup {
		s.mu.Unlock()
		fail(w, api.CodeConflict, fmt.Sprintf("tenant %q already registered", req.Tenant), 0)
		return
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		s.mu.Unlock()
		fail(w, api.CodeTenantLimit, fmt.Sprintf("tenant table full (%d)", s.cfg.MaxTenants), 0)
		return
	}
	s.tenants[req.Tenant] = tn
	n := len(s.tenants)
	s.mu.Unlock()
	gTenants.Set(int64(n))
	if req.BudgetUnitsPerSec > 0 {
		s.acct.SetBudget(req.Tenant, req.BudgetUnitsPerSec, req.BudgetBurst)
	}
	obs.DefaultJournal.Append(obs.EvTenantRegister, 0, "",
		obs.F("tenant", req.Tenant),
		obs.F("pending", len(pendingIDs)),
		obs.F("budget_units_per_sec", req.BudgetUnitsPerSec))

	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, &api.RegisterResponse{
		Tenant:      req.Tenant,
		StateTuples: stateTuples,
		Pending:     len(pendingIDs),
		FDs:         len(db.Constraints.FDs),
		INDs:        len(db.Constraints.INDs),
		PendingIDs:  toInt64s(pendingIDs),
		Queries:     names,
		Plant:       plant,
	})
}

// status assembles the wire status of one tenant. Budget state comes
// from the accountant's admission table so the decision shown is the
// live one (/debug/attrib shows the same numbers).
func (s *Server) status(tn *tenant) api.TenantStatus {
	gs := tn.mon.GraphStatsSnapshot()
	cs := tn.mon.CacheStats()
	tn.mu.RLock()
	names := make([]string, 0, len(tn.queries))
	for name := range tn.queries {
		names = append(names, name)
	}
	tn.mu.RUnlock()
	sort.Strings(names)
	st := api.TenantStatus{
		Tenant:        tn.name,
		Pending:       gs.Pending,
		Live:          gs.Live,
		Components:    gs.Components,
		ConflictPairs: gs.ConflictPairs,
		ChecksServed:  tn.checks.Load(),
		Queries:       names,
		Cache: api.CacheStatus{
			Hits:        int64(cs.Hits),
			Misses:      int64(cs.Misses),
			Stores:      int64(cs.Stores),
			Evicted:     int64(cs.Evicted),
			Invalidated: int64(cs.Invalidated),
		},
	}
	if tn.budgetUnits > 0 {
		b := &api.BudgetStatus{UnitsPerSec: tn.budgetUnits, Burst: tn.budgetBurst}
		for _, a := range obs.DumpAttrib(s.acct, 0).Admit {
			if a.Tenant == tn.name {
				b.Decision = a.Decision
				b.RetryMS = a.RetryMS
				b.Burst = a.Burst
			}
		}
		st.Budget = b
	}
	return st
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	s.mu.RLock()
	tns := make([]*tenant, 0, len(s.tenants))
	for _, tn := range s.tenants {
		tns = append(tns, tn)
	}
	s.mu.RUnlock()
	sort.Slice(tns, func(i, j int) bool { return tns[i].name < tns[j].name })
	resp := api.ListResponse{Tenants: make([]api.TenantStatus, len(tns))}
	for i, tn := range tns {
		resp.Tenants[i] = s.status(tn)
	}
	writeJSON(w, &resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	tn := s.tenantByName(r.PathValue("tenant"))
	if tn == nil {
		fail(w, api.CodeNotFound, "unknown tenant", 0)
		return
	}
	st := s.status(tn)
	writeJSON(w, &st)
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	name := r.PathValue("tenant")
	s.mu.Lock()
	tn := s.tenants[name]
	if tn != nil {
		delete(s.tenants, name)
	}
	n := len(s.tenants)
	s.mu.Unlock()
	if tn == nil {
		fail(w, api.CodeNotFound, "unknown tenant", 0)
		return
	}
	gTenants.Set(int64(n))
	s.acct.SetBudget(name, 0, 0)
	obs.DefaultJournal.Append(obs.EvTenantDeregister, 0, "", obs.F("tenant", name))
	w.WriteHeader(http.StatusNoContent)
}

// handleDeltas applies a batch of mempool delta operations in order.
// Operations are independent: one failing (unknown id, conflicting
// commit) is reported in its result without aborting the rest, the
// same contract relmap's delta sync gives replayed node events.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	if s.draining.Load() {
		fail(w, api.CodeDraining, "server is draining", time.Second)
		return
	}
	tn := s.tenantByName(r.PathValue("tenant"))
	if tn == nil {
		fail(w, api.CodeNotFound, "unknown tenant", 0)
		return
	}
	var req api.DeltaRequest
	if err := decode(w, r, &req); err != nil {
		fail(w, api.CodeBadRequest, "bad delta body: "+err.Error(), 0)
		return
	}
	resp := api.DeltaResponse{Results: make([]api.DeltaResult, len(req.Ops))}
	for i, op := range req.Ops {
		res := api.DeltaResult{Op: op.Op, ID: op.ID}
		var err error
		switch op.Op {
		case api.OpAdd:
			var tx *relation.Transaction
			tx, err = buildTransaction(op.Tx)
			if err == nil {
				var id int
				id, err = tn.mon.AddPending(tx)
				res.ID = int64(id)
			}
		case api.OpDrop:
			err = tn.mon.DropPending(int(op.ID))
		case api.OpCommit:
			err = tn.mon.Commit(int(op.ID))
		case api.OpCommitExternal:
			var tx *relation.Transaction
			tx, err = buildTransaction(op.Tx)
			if err == nil {
				err = tn.mon.CommitExternal(tx)
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			res.Error = err.Error()
			resp.Failed++
		} else {
			resp.Applied++
		}
		resp.Results[i] = res
		mDeltaOps.Inc()
	}
	resp.Pending = tn.mon.PendingCount()
	writeJSON(w, &resp)
}

// handleCheck is the hot path: admission → backpressure → deadline →
// engine, in that order, so over-budget and saturated traffic is
// turned away before it costs anything.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	if s.draining.Load() {
		vRejected.With("draining").Inc()
		fail(w, api.CodeDraining, "server is draining", time.Second)
		return
	}
	name := r.PathValue("tenant")
	tn := s.tenantByName(name)
	if tn == nil {
		fail(w, api.CodeNotFound, "unknown tenant", 0)
		return
	}
	var req api.CheckRequest
	if err := decode(w, r, &req); err != nil {
		fail(w, api.CodeBadRequest, "bad check body: "+err.Error(), 0)
		return
	}
	var (
		q      *query.Query
		qlabel string
	)
	switch {
	case req.Name != "":
		tn.mu.RLock()
		q = tn.queries[req.Name]
		tn.mu.RUnlock()
		if q == nil {
			fail(w, api.CodeNotFound, fmt.Sprintf("unknown query %q", req.Name), 0)
			return
		}
		qlabel = req.Name
	case req.Query != "":
		var err error
		q, err = query.Parse(req.Query)
		if err != nil {
			fail(w, api.CodeBadRequest, "bad query: "+err.Error(), 0)
			return
		}
		// qlabel stays empty: core fills the principal's query slot
		// with the check's own fingerprint.
	default:
		fail(w, api.CodeBadRequest, "check needs a query name or inline query", 0)
		return
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		fail(w, api.CodeBadRequest, err.Error(), 0)
		return
	}

	// Admission: the budget decision for this tenant, debited by core
	// as checks finish.
	switch dec, retry := s.acct.Admit(obs.Principal{Tenant: name}); dec {
	case obs.AdmitThrottle:
		vRejected.With("throttle").Inc()
		fail(w, api.CodeThrottled, fmt.Sprintf("tenant %q over budget", name), retry)
		return
	case obs.AdmitShed:
		vRejected.With("shed").Inc()
		fail(w, api.CodeShed, fmt.Sprintf("tenant %q deeply over budget, load shed", name), retry)
		return
	}

	// Backpressure: when the engine's worker pool is already
	// saturated, queueing only adds latency — reject outright.
	// Otherwise wait briefly for an inflight slot.
	if s.poolUtil.Value() >= s.cfg.SaturationPermille {
		vRejected.With("backpressure").Inc()
		fail(w, api.CodeBackpressure, "check pool saturated", s.cfg.QueueWait)
		return
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		t := time.NewTimer(s.cfg.QueueWait)
		select {
		case s.inflight <- struct{}{}:
			t.Stop()
		case <-t.C:
			vRejected.With("backpressure").Inc()
			fail(w, api.CodeBackpressure, "no check capacity", s.cfg.QueueWait)
			return
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
	defer func() { <-s.inflight }()
	gInflight.Add(1)
	defer gInflight.Add(-1)
	if s.beforeCheck != nil {
		s.beforeCheck()
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = obs.WithPrincipal(ctx, name, qlabel)
	workers := tn.workers
	if req.Workers > 0 {
		workers = req.Workers
	}
	opts := core.Options{Algorithm: algo, Workers: workers}
	if dl, ok := ctx.Deadline(); ok {
		opts.Deadline = dl
	}

	start := time.Now()
	res, cerr := tn.mon.Check(ctx, q, opts)
	elapsed := time.Since(start)
	resp := api.CheckResponse{Tenant: name}
	if cerr != nil {
		if errors.Is(cerr, core.ErrUndecided) && res != nil {
			resp.Undecided = true
			resp.Stats = wireStats(&res.Stats)
			mChecksServed.Inc()
			tn.checks.Add(1)
			hCheckNS.ObserveDuration(elapsed)
			writeJSON(w, &resp)
			return
		}
		fail(w, api.CodeInternal, cerr.Error(), 0)
		return
	}
	resp.Satisfied = res.Satisfied
	if len(res.WitnessIDs) > 0 {
		resp.Witness = toInt64s(res.WitnessIDs)
	}
	resp.Stats = wireStats(&res.Stats)
	mChecksServed.Inc()
	tn.checks.Add(1)
	hCheckNS.ObserveDuration(elapsed)
	writeJSON(w, &resp)
}

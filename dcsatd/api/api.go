// Package api defines the versioned wire contract of the dcsatd
// serving daemon: the JSON request and response types shared by the
// server (dcsatd/server), the Go client (dcsatd/client), and the load
// generator (cmd/dcsatload).
//
// # Versioning policy
//
// The contract is versioned by URL path: every endpoint lives under
// /v1. Within a major version the contract only grows — new optional
// request fields (zero value = old behaviour) and new response fields
// may be added, but existing fields are never renamed, retyped, or
// repurposed. A breaking change mints /v2 alongside /v1; the server
// keeps serving /v1 until it is retired explicitly. Clients pin the
// version through Prefix and ignore unknown response fields.
//
// # Endpoints (v1)
//
//	POST   /v1/tenants                    register a tenant (RegisterRequest → RegisterResponse)
//	GET    /v1/tenants                    list tenants (→ ListResponse)
//	GET    /v1/tenants/{tenant}           one tenant's status (→ TenantStatus)
//	DELETE /v1/tenants/{tenant}           deregister (→ 204)
//	POST   /v1/tenants/{tenant}/deltas    stream mempool deltas (DeltaRequest → DeltaResponse)
//	POST   /v1/tenants/{tenant}/check     run a denial-constraint check (CheckRequest → CheckResponse)
//
// Failures carry an Error envelope. Admission pressure surfaces as
// HTTP 429 (CodeThrottled) and 503 (CodeShed, CodeBackpressure,
// CodeDraining), each with RetryAfterMS and a Retry-After header.
//
// This package is pure data: stdlib only, no engine imports, so any
// program can speak the protocol by importing it (or by writing the
// JSON by hand — the shapes here are the documentation).
package api

import "fmt"

// Version is the wire-contract major version this package describes.
const Version = "v1"

// Prefix is the URL path prefix of every versioned endpoint.
const Prefix = "/" + Version

// Row is one tuple as a JSON array. Element types follow JSON: string,
// bool, null, and numbers — integral numbers are decoded as int64
// (amounts, serial numbers), everything else as float64. Column kinds
// are enforced server-side against the tenant's registered schema.
type Row []any

// SchemaSpec declares one relation as "name:kind" column specs, where
// kind is one of int, float, string, bool, or any (default).
type SchemaSpec struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
}

// FDSpec declares a functional dependency rel: lhs → rhs. An empty RHS
// declares a key: lhs determines every other column of the relation.
type FDSpec struct {
	Rel string   `json:"rel"`
	LHS []string `json:"lhs"`
	RHS []string `json:"rhs,omitempty"`
}

// INDSpec declares an inclusion dependency rel[cols] ⊆ refRel[refCols].
type INDSpec struct {
	Rel     string   `json:"rel"`
	Cols    []string `json:"cols"`
	RefRel  string   `json:"ref_rel"`
	RefCols []string `json:"ref_cols"`
}

// Insert is a batch of rows for one relation inside a transaction.
type Insert struct {
	Rel  string `json:"rel"`
	Rows []Row  `json:"rows"`
}

// TxSpec is one insert transaction on the wire: a named set of rows,
// the unit the paper's pending set T is made of.
type TxSpec struct {
	Name    string   `json:"name"`
	Inserts []Insert `json:"inserts"`
}

// WorkloadSpec asks the server to generate the tenant's dataset
// server-side (internal/workload's Bitcoin-shaped synthesizer) instead
// of shipping schemas and state over the wire — the load-generator
// path. Zero fields default to a small serving-scale dataset.
type WorkloadSpec struct {
	Seed              int64   `json:"seed"`
	Blocks            int     `json:"blocks,omitempty"`
	TxPerBlock        int     `json:"tx_per_block,omitempty"`
	Users             int     `json:"users,omitempty"`
	PendingBlocks     int     `json:"pending_blocks,omitempty"`
	PendingTxPerBlock int     `json:"pending_tx_per_block,omitempty"`
	Contradictions    int     `json:"contradictions,omitempty"`
	ChainProb         float64 `json:"chain_prob,omitempty"`
	MaxOuts           int     `json:"max_outs,omitempty"`
}

// RegisterRequest registers a tenant: its database D = (R, I, T) —
// either explicit (Schemas/FDs/INDs/State/Pending) or server-generated
// (Workload) — plus named denial constraints and an admission budget.
type RegisterRequest struct {
	Tenant string `json:"tenant"`

	// Explicit database definition. State transactions must satisfy
	// the constraints (the model requires R |= I); Pending may conflict
	// freely — that is what the engine reasons about.
	Schemas []SchemaSpec `json:"schemas,omitempty"`
	FDs     []FDSpec     `json:"fds,omitempty"`
	INDs    []INDSpec    `json:"inds,omitempty"`
	State   []TxSpec     `json:"state,omitempty"`
	Pending []TxSpec     `json:"pending,omitempty"`

	// Workload, when non-nil, replaces the explicit definition with a
	// server-generated dataset; the response's Plant reports the
	// constants embedded for each query family.
	Workload *WorkloadSpec `json:"workload,omitempty"`

	// Queries are named denial constraints, registered once and
	// checked by name (CheckRequest.Name).
	Queries map[string]string `json:"queries,omitempty"`

	// Admission budget in cost units per second (obs.CostVector.Units:
	// wall µs + cliques + worlds + probes/64) with a burst allowance.
	// Zero rate leaves the tenant unmetered.
	BudgetUnitsPerSec int64 `json:"budget_units_per_sec,omitempty"`
	BudgetBurst       int64 `json:"budget_burst,omitempty"`

	// CacheEntries bounds the Monitor's verdict store, in per-query
	// tables (each holds one verdict per current component of its
	// query): 0 keeps the engine default, negative disables reuse.
	CacheEntries int `json:"cache_entries,omitempty"`
	// Workers is the default check parallelism (CheckRequest.Workers
	// overrides per call).
	Workers int `json:"workers,omitempty"`
}

// PlantInfo reports the constants a generated workload embedded in the
// pending set, so clients can aim each query family at a violated or a
// satisfied instantiation (internal/workload.Plant on the wire).
type PlantInfo struct {
	SimplePk      string   `json:"simple_pk"`
	AbsentPk      string   `json:"absent_pk"`
	PathPks       []string `json:"path_pks,omitempty"`
	StarPk        string   `json:"star_pk,omitempty"`
	StarSize      int      `json:"star_size,omitempty"`
	AggPk         string   `json:"agg_pk,omitempty"`
	AggReachable  int64    `json:"agg_reachable,omitempty"`
	AggUnionTotal int64    `json:"agg_union_total,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	Tenant      string `json:"tenant"`
	StateTuples int    `json:"state_tuples"`
	Pending     int    `json:"pending"`
	FDs         int    `json:"fds"`
	INDs        int    `json:"inds"`
	// PendingIDs are the stable ids assigned to the initial pending
	// transactions, in registration order — the handles DeltaOp.ID
	// addresses for drop and commit.
	PendingIDs []int64    `json:"pending_ids,omitempty"`
	Queries    []string   `json:"queries,omitempty"`
	Plant      *PlantInfo `json:"plant,omitempty"`
}

// Delta operation kinds.
const (
	OpAdd            = "add"             // add a pending transaction (Tx)
	OpDrop           = "drop"            // drop a pending transaction (ID)
	OpCommit         = "commit"          // commit a pending transaction to the state (ID)
	OpCommitExternal = "commit_external" // commit a never-pending transaction (Tx)
)

// DeltaOp is one mempool mutation: Add/Drop/Commit/CommitExternal,
// mirroring relmap.NodeMonitor's delta-sync verbs.
type DeltaOp struct {
	Op string  `json:"op"`
	Tx *TxSpec `json:"tx,omitempty"` // add, commit_external
	ID int64   `json:"id,omitempty"` // drop, commit
}

// DeltaRequest applies a batch of mutations in order.
type DeltaRequest struct {
	Ops []DeltaOp `json:"ops"`
}

// DeltaResult is one operation's outcome. ID is the assigned pending
// id for add, echoed for drop/commit. A failed op reports Error and
// does not stop the batch — deltas are independent mutations, not a
// transaction.
type DeltaResult struct {
	Op    string `json:"op"`
	ID    int64  `json:"id"`
	Error string `json:"error,omitempty"`
}

// DeltaResponse reports per-op outcomes plus the resulting pool size.
type DeltaResponse struct {
	Results []DeltaResult `json:"results"`
	Applied int           `json:"applied"`
	Failed  int           `json:"failed"`
	Pending int           `json:"pending"`
}

// CheckRequest runs a denial constraint: either a registered query by
// Name or an inline Query string (exactly one must be set).
type CheckRequest struct {
	Name  string `json:"name,omitempty"`
	Query string `json:"query,omitempty"`
	// TimeoutMS bounds the check's wall clock; past it the verdict is
	// Undecided. Zero applies the server's default, and the server's
	// maximum caps any request. The remaining budget also propagates
	// into the engine as the context deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Algorithm picks the decision procedure: auto (default), naive,
	// opt, fdonly, exhaustive.
	Algorithm string `json:"algorithm,omitempty"`
	// Workers overrides the tenant's default check parallelism.
	Workers int `json:"workers,omitempty"`
}

// CheckStats is the engine's per-check cost breakdown on the wire.
type CheckStats struct {
	Algorithm        string `json:"algorithm"`
	DurationNS       int64  `json:"duration_ns"`
	Cliques          int64  `json:"cliques"`
	Worlds           int64  `json:"worlds"`
	Components       int    `json:"components"`
	ComponentsCached int    `json:"components_cached"`
	CacheHits        int    `json:"cache_hits"`
	CacheMisses      int    `json:"cache_misses"`
	SweepReplays     int    `json:"sweep_replays"`
	PlanProbes       int64  `json:"plan_probes"`
}

// CheckResponse is a verdict. Satisfied true means D |= ¬q: the
// undesirable outcome cannot occur in any possible world. Undecided
// true means the deadline cut the search short — Satisfied is
// meaningless and Stats carries the partial cost.
type CheckResponse struct {
	Tenant    string `json:"tenant"`
	Satisfied bool   `json:"satisfied"`
	Undecided bool   `json:"undecided,omitempty"`
	// Witness, when the constraint is violated, lists the stable
	// pending ids of one transaction set whose world satisfies the
	// query; empty means the committed state alone violates it.
	Witness []int64    `json:"witness,omitempty"`
	Stats   CheckStats `json:"stats"`
}

// BudgetStatus is a tenant's admission state.
type BudgetStatus struct {
	UnitsPerSec int64  `json:"units_per_sec"`
	Burst       int64  `json:"burst"`
	Decision    string `json:"decision"` // ok, throttle, shed
	RetryMS     int64  `json:"retry_ms,omitempty"`
}

// CacheStatus is a tenant Monitor's verdict-store counters: Hits and
// Misses count per-component lookups, Stores verdicts written, Evicted
// verdicts dropped by the table bound or because their component is
// gone, and Invalidated verdicts cleared by commits.
type CacheStatus struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Stores      int64 `json:"stores"`
	Evicted     int64 `json:"evicted"`
	Invalidated int64 `json:"invalidated"`
}

// TenantStatus is one tenant's live state.
type TenantStatus struct {
	Tenant        string        `json:"tenant"`
	Pending       int           `json:"pending"`
	Live          int           `json:"live"`
	Components    int           `json:"components"`
	ConflictPairs int           `json:"conflict_pairs"`
	ChecksServed  int64         `json:"checks_served"`
	Queries       []string      `json:"queries,omitempty"`
	Budget        *BudgetStatus `json:"budget,omitempty"`
	Cache         CacheStatus   `json:"cache"`
}

// ListResponse lists every registered tenant.
type ListResponse struct {
	Tenants []TenantStatus `json:"tenants"`
}

// Error codes.
const (
	CodeBadRequest   = "bad_request"  // malformed JSON, schema/query errors (400)
	CodeNotFound     = "not_found"    // unknown tenant, query name, pending id (404)
	CodeConflict     = "conflict"     // tenant already registered (409)
	CodeTenantLimit  = "tenant_limit" // tenant table full (429)
	CodeThrottled    = "throttled"    // admission THROTTLE: over budget, slow down (429)
	CodeShed         = "shed"         // admission SHED: deeply over budget, dropped (503)
	CodeBackpressure = "backpressure" // check pool saturated, dropped (503)
	CodeDraining     = "draining"     // server shutting down, finish elsewhere (503)
	CodeInternal     = "internal"     // server-side failure (500)
)

// Error is the failure envelope every non-2xx response carries. It
// implements the error interface so the Go client returns it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, on throttled/shed/backpressure/draining, is the
	// server's estimate of when retrying could succeed (also sent as
	// the Retry-After header, in seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Error renders the envelope as "code: message".
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// IsRetryable reports whether the failure is load-induced and worth
// retrying after RetryAfterMS, as opposed to a caller bug.
func (e *Error) IsRetryable() bool {
	switch e.Code {
	case CodeThrottled, CodeShed, CodeBackpressure, CodeDraining:
		return true
	}
	return false
}

// Package blockchaindb is a library for reasoning about the future of
// blockchain-backed databases, implementing Cohen, Rosenthal, and
// Zohar, "Reasoning about the Future in Blockchain Databases" (ICDE
// 2020).
//
// A blockchain database is a triple D = (R, I, T): a committed current
// state R of relations, integrity constraints I (keys, functional
// dependencies, inclusion dependencies), and a set T of pending insert
// transactions that may or may not ever be appended by the consensus
// layer. The set of worlds reachable by appending pending transactions
// while preserving I is Poss(D). A denial constraint is a Boolean query
// q the user wants to remain false; the central question — can an
// undesirable outcome occur? — is whether q is false in every possible
// world (D |= ¬q).
//
// The package exposes:
//
//   - schema/constraint/transaction builders over a typed in-memory
//     relational engine (New, Database);
//   - a denial-constraint language (ParseQuery) with conjunctive and
//     aggregate queries;
//   - decision procedures (Database.Check): the paper's NaiveDCSat and
//     OptDCSat for monotonic constraints, a PTIME solver for IND-free
//     databases, and an exhaustive ground-truth checker;
//   - the complexity classifier of the paper's Theorems 1–2
//     (Database.Classify);
//   - the paper's future-work extensions: deriving contradicting
//     transactions (Database.Contradict) and Monte-Carlo violation
//     probability (Database.EstimateViolation);
//   - a steady-state monitor with incrementally maintained structures
//     (Database.Monitor);
//   - a Bitcoin-like substrate (internal/bitcoin, internal/netsim) and
//     a mapper from chains and mempools to blockchain databases (see
//     cmd/bcnode and the examples).
//
// See examples/quickstart for a complete tour.
package blockchaindb

import (
	"context"
	"fmt"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/core"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// Re-exported building blocks. The aliases make the internal packages'
// documented types available through the public module path.
type (
	// Value is a typed constant (int, float, string, bool, or null).
	Value = value.Value
	// Tuple is one row of a relation.
	Tuple = value.Tuple
	// Schema describes a relation's name and typed attributes.
	Schema = relation.Schema
	// State is a set of relations — the current state R or any world.
	State = relation.State
	// Transaction is a pending insert transaction: a named set of rows.
	Transaction = relation.Transaction
	// View is a read-only window over relations (states and overlays).
	View = relation.View
	// FD is a functional dependency (keys are FDs whose RHS spans the
	// relation).
	FD = constraint.FD
	// IND is an inclusion dependency.
	IND = constraint.IND
	// Constraints is a compiled integrity-constraint set I.
	Constraints = constraint.Set
	// Query is a parsed denial constraint.
	Query = query.Query
	// Result is a denial-constraint check outcome.
	Result = core.Result
	// Options select and tune the checking algorithm.
	Options = core.Options
	// Stats describe what a check did.
	Stats = core.Stats
	// Algorithm names a decision procedure.
	Algorithm = core.Algorithm
	// Complexity is a data-complexity class from Theorems 1–2.
	Complexity = core.Complexity
	// Estimate is a Monte-Carlo violation-probability estimate.
	Estimate = core.Estimate
	// InclusionModel weights pending transactions for estimation.
	InclusionModel = core.InclusionModel
	// Monitor maintains a database in steady state.
	Monitor = core.Monitor
	// MonitorOption configures Database.Monitor / core.NewMonitor.
	MonitorOption = core.MonitorOption
	// CacheStats snapshots a Monitor's verdict store.
	CacheStats = core.CacheStats
)

// Algorithm choices for Options.Algorithm.
const (
	AlgoAuto       = core.AlgoAuto
	AlgoNaive      = core.AlgoNaive
	AlgoOpt        = core.AlgoOpt
	AlgoFDOnly     = core.AlgoFDOnly
	AlgoExhaustive = core.AlgoExhaustive
)

// Complexity classes reported by Classify.
const (
	PTime        = core.PTime
	CoNPComplete = core.CoNPComplete
	CoNP         = core.CoNP
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = value.Int
	// Float builds a floating-point value.
	Float = value.Float
	// Str builds a string value.
	Str = value.Str
	// Bool builds a Boolean value.
	Bool = value.Bool
	// Null is the missing value.
	Null = value.Null
	// NewTuple builds a row from values.
	NewTuple = value.NewTuple
)

// Relational builders.
var (
	// NewSchema builds a schema from "name:kind" column specifications
	// (kinds: int, float, string, bool, any).
	NewSchema = relation.NewSchema
	// NewState creates an empty set of relations.
	NewState = relation.NewState
	// NewTransaction creates an empty named insert transaction.
	NewTransaction = relation.NewTransaction
	// NewFD builds a functional dependency rel: lhs → rhs.
	NewFD = constraint.NewFD
	// NewKey builds a key constraint over the schema's attributes.
	NewKey = constraint.NewKey
	// NewIND builds an inclusion dependency rel[cols] ⊆ ref[refCols].
	NewIND = constraint.NewIND
	// UniformInclusion is an InclusionModel giving every pending
	// transaction the same probability.
	UniformInclusion = core.UniformInclusion
	// DefaultOptions returns the recommended Options configuration.
	DefaultOptions = core.DefaultOptions
	// WithCache bounds a Monitor's verdict store, in per-query tables
	// (<=0 disables verdict reuse).
	WithCache = core.WithCache
	// WithObserver routes a Monitor's lifecycle events to a journal.
	WithObserver = core.WithObserver
)

// ParseQuery parses a denial constraint, e.g.
//
//	q() :- TxOut(ntx, s, 'U8Pk', a)
//	q(sum(a)) > 5 :- TxIn(t, s, 'AlicePK', a, nt, 'AliceSig')
//
// See internal/query.Parse for the grammar.
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string) *Query { return query.MustParse(src) }

// Database is a blockchain database D = (R, I, T) ready for denial
// constraint checking.
type Database struct {
	db *possible.DB
}

// New assembles a blockchain database from a state, its constraints,
// and the pending transactions. It fails when the state violates the
// constraints (the model requires R |= I) or a transaction does not fit
// the schemas.
func New(state *State, fds []*FD, inds []*IND, pending ...*Transaction) (*Database, error) {
	cons, err := constraint.NewSet(state, fds, inds)
	if err != nil {
		return nil, err
	}
	db, err := possible.New(state, cons, pending)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// FromParts wraps pre-built components (used by the relmap bridge and
// tests); the same validation as New applies.
func FromParts(state *State, cons *Constraints, pending []*Transaction) (*Database, error) {
	db, err := possible.New(state, cons, pending)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// State returns the current state R.
func (d *Database) State() *State { return d.db.State }

// Constraints returns the integrity constraints I.
func (d *Database) Constraints() *Constraints { return d.db.Constraints }

// Pending returns the pending transactions T (do not modify).
func (d *Database) Pending() []*Transaction { return d.db.Pending }

// Check decides whether the denial constraint is satisfied: true means
// q is false in every possible world, so the undesirable outcome cannot
// occur. The zero Options picks the best applicable algorithm; call
// Options.Validate to catch misconfiguration early. The context is the
// cancellation and tracing handle — cancelling it (or setting
// Options.Deadline) aborts the search with an error wrapping
// core.ErrUndecided; pass context.Background() when neither applies.
func (d *Database) Check(ctx context.Context, q *Query, opts Options) (*Result, error) {
	return core.Check(ctx, d.db, q, opts)
}

// Classify reports the data complexity of checking this query class
// against this database's constraint types, per Theorems 1–2.
func (d *Database) Classify(q *Query) Complexity {
	return core.Classify(q, d.db.Constraints)
}

// PossibleWorlds enumerates Poss(D): each possible world's included
// pending-transaction indexes and a view of its contents. Exponential;
// meant for small databases and debugging.
func (d *Database) PossibleWorlds(yield func(included []int, world View) bool) {
	d.db.EnumerateWorlds(func(included []int, w *relation.Overlay) bool {
		return yield(included, w)
	})
}

// CountWorlds returns |Poss(D)| (exponential enumeration).
func (d *Database) CountWorlds() int { return d.db.CountWorlds() }

// IsReachable reports whether appending exactly the pending
// transactions at the given indexes (in some order) yields a possible
// world — Proposition 1, in PTIME.
func (d *Database) IsReachable(included []int) bool { return d.db.IsReachable(included) }

// Contradict derives a transaction that conflicts with the pending
// transaction at the index, so the two can never coexist — the paper's
// retraction mechanism.
func (d *Database) Contradict(pendingIndex int, name string) (*Transaction, error) {
	if pendingIndex < 0 || pendingIndex >= len(d.db.Pending) {
		return nil, fmt.Errorf("blockchaindb: pending index %d out of range", pendingIndex)
	}
	return core.Contradict(d.db, d.db.Pending[pendingIndex], name)
}

// EstimateViolation estimates the probability the denial constraint is
// violated under the inclusion model, by Monte-Carlo sampling of
// possible worlds.
func (d *Database) EstimateViolation(q *Query, model InclusionModel, samples int, seed int64) (*Estimate, error) {
	return core.EstimateViolation(d.db, q, model, samples, seed)
}

// Monitor wraps the database in a steady-state monitor that maintains
// the checking structures incrementally as transactions arrive and
// commit: fd-conflict pairs, appendability statuses, the Θ_I component
// partition, and a verdict store holding, per standing query, the
// verdicts of its current components. Options (WithCache,
// WithObserver) tune the store and observability.
func (d *Database) Monitor(opts ...MonitorOption) *Monitor { return core.NewMonitor(d.db, opts...) }

// CertainAnswers returns, for a non-Boolean query (head variables), the
// tuples returned in every possible world. For positive conjunctive
// queries this is exactly q(R) — the paper's Section 5 remark — and is
// computed without enumerating worlds; with negation it falls back to
// exhaustive enumeration. Cancelling ctx stops the enumeration with an
// error wrapping core.ErrUndecided.
func (d *Database) CertainAnswers(ctx context.Context, q *Query) ([]Tuple, error) {
	return core.CertainAnswers(ctx, d.db, q)
}

// PossibleAnswers returns, for a non-Boolean query, the tuples returned
// in some possible world. Each candidate t, an answer of the query's
// positive part over R ∪ ∪T, is decided by one Check of the Boolean
// query with its head bound to t: t is possible iff that check reports
// a violation. Cancelling ctx stops the search with an error wrapping
// core.ErrUndecided.
func (d *Database) PossibleAnswers(ctx context.Context, q *Query) ([]Tuple, error) {
	return core.PossibleAnswers(ctx, d.db, q)
}

// Explain renders the evaluator's plan for the query over the current
// state: join order, index lookups versus scans, conditions, and the
// query's static properties.
func (d *Database) Explain(q *Query) (string, error) {
	return query.Explain(q, d.db.State)
}

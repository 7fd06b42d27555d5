package query

import (
	"fmt"
	"sync"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// CheckAgainst validates the query's atoms against the view's schemas:
// every referenced relation must exist and arities must match.
func (q *Query) CheckAgainst(v relation.View) error {
	for _, a := range q.Atoms {
		sc := v.Schema(a.Rel)
		if sc == nil {
			return fmt.Errorf("query: unknown relation %q in %v", a.Rel, a)
		}
		if len(a.Args) != sc.Arity() {
			return fmt.Errorf("query: atom %v has %d arguments, relation has arity %d",
				a, len(a.Args), sc.Arity())
		}
	}
	return nil
}

// scratchPool recycles evaluation scratches across the convenience
// entry points below. Hot callers (the DCSat engines) hold their own
// Scratch per worker instead and call Plan.Eval directly.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Eval evaluates the denial constraint's underlying query over the
// view, returning true if the query is satisfied (i.e. the denial
// constraint is violated in this world). The query must have been
// validated; Eval returns an error only for schema mismatches. The
// query is compiled on first use and the plan cached (see PlanFor).
func Eval(q *Query, v relation.View) (bool, error) {
	p, err := PlanFor(q, v)
	if err != nil {
		return false, err
	}
	return p.EvalPooled(v)
}

// EvalPooled is Plan.Eval on a scratch from the package pool, for a
// caller that holds a compiled plan but no Scratch of its own.
func (p *Plan) EvalPooled(v relation.View) (bool, error) {
	sc := scratchPool.Get().(*Scratch)
	ok, err := p.Eval(v, sc)
	scratchPool.Put(sc)
	return ok, err
}

// EvalTuples evaluates a non-Boolean query: it returns the distinct
// head-variable projections of the satisfying assignments, in
// first-found order (set semantics). Boolean and aggregate queries are
// rejected.
func EvalTuples(q *Query, v relation.View) ([]value.Tuple, error) {
	if q.IsBoolean() || q.Agg != nil {
		return nil, fmt.Errorf("query: EvalTuples requires head variables, got %s", q)
	}
	p, err := PlanFor(q, v)
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	seen := make(map[string]bool)
	var out []value.Tuple
	sc.prepare(p, v, false, func() bool {
		proj := make(value.Tuple, len(p.headSlots))
		for i, s := range p.headSlots {
			proj[i] = sc.slotOr(s)
		}
		key := proj.Key()
		if !seen[key] {
			seen[key] = true
			out = append(out, proj)
		}
		return true
	})
	sc.run()
	sc.finish()
	return out, nil
}

// Binding is the variable assignment Assignments yields: a view into
// the running evaluation's slots. It is only valid inside the yield
// callback; copy values out to retain them.
type Binding struct {
	plan *Plan
	sc   *Scratch
}

// Value returns the bound value of the named variable, or ok=false when
// the query has no such variable bound by a positive atom.
func (b *Binding) Value(name string) (value.Value, bool) {
	s, ok := b.plan.slotOf[name]
	if !ok {
		return value.Null, false
	}
	return b.sc.slots[s], true
}

// Vars returns the names of the variables the binding carries (those
// bound by positive atoms), in slot order.
func (b *Binding) Vars() []string { return b.plan.slotNames }

// Assignments enumerates the assignments satisfying the query body over
// the view, calling yield with each binding (the binding is a live view
// into evaluation state — read it only inside the callback). When
// checkNegation is false, negated atoms are ignored, which the PTIME
// solvers use to find candidate assignments whose negations must be
// re-checked against a smaller world than v. The aggregate head, if
// any, is ignored. yield returning false stops the enumeration.
func Assignments(q *Query, v relation.View, checkNegation bool, yield func(b *Binding) bool) error {
	p, err := PlanFor(q, v)
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	b := &Binding{plan: p, sc: sc}
	sc.prepare(p, v, !checkNegation, func() bool { return yield(b) })
	sc.run()
	sc.finish()
	return nil
}

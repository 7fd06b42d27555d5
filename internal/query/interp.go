package query

import (
	"fmt"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// This file is the legacy interpreted evaluator: a backtracking join
// that re-derives the plan (join order, bound/free column splits) on
// every invocation and binds variables through a map. Production paths
// route through the compiled engine in plan.go; the interpreter is
// retained as a second, independently-written oracle for the
// compiled-vs-interpreted differential tests (the naive EvalReference
// being the third).

// EvalInterpreted evaluates the query with the legacy interpreted
// evaluator. Semantics are identical to Eval; only the execution
// strategy differs.
func EvalInterpreted(q *Query, v relation.View) (bool, error) {
	if err := q.CheckAgainst(v); err != nil {
		return false, err
	}
	ev := newEvaluator(q, v)
	if q.Agg == nil {
		found := false
		ev.run(func() bool {
			found = true
			return false // stop at first satisfying assignment
		})
		return found, nil
	}
	return ev.aggregate()
}

// evalTuplesInterpreted is the interpreted twin of EvalTuples, for
// differential tests.
func evalTuplesInterpreted(q *Query, v relation.View) ([]value.Tuple, error) {
	if q.IsBoolean() || q.Agg != nil {
		return nil, fmt.Errorf("query: EvalTuples requires head variables, got %s", q)
	}
	if err := q.CheckAgainst(v); err != nil {
		return nil, err
	}
	ev := newEvaluator(q, v)
	seen := make(map[string]bool)
	var out []value.Tuple
	ev.run(func() bool {
		proj := make(value.Tuple, len(q.HeadVars))
		for i, hv := range q.HeadVars {
			proj[i] = ev.binding[hv]
		}
		key := proj.Key()
		if !seen[key] {
			seen[key] = true
			out = append(out, proj)
		}
		return true
	})
	return out, nil
}

// assignmentsInterpreted is the interpreted twin of Assignments, for
// differential tests. The yielded map is reused across calls.
func assignmentsInterpreted(q *Query, v relation.View, checkNegation bool, yield func(binding map[string]value.Value) bool) error {
	if err := q.CheckAgainst(v); err != nil {
		return err
	}
	ev := newEvaluator(q, v)
	ev.skipNegation = !checkNegation
	ev.run(func() bool { return yield(ev.binding) })
	return nil
}

// evaluator is a backtracking join over the positive atoms, using view
// hash lookups on the columns already bound at each step. Negated atoms
// and comparisons are checked as soon as their variables are bound.
type evaluator struct {
	q            *Query
	v            relation.View
	pos          []Atom
	order        []int
	binding      map[string]value.Value
	skipNegation bool

	// Local instrument counts, flushed to the registry once per run —
	// keeps the per-tuple hot path free of atomics.
	lookups int64
	scans   int64
	probes  int64
}

func newEvaluator(q *Query, v relation.View) *evaluator {
	ev := &evaluator{q: q, v: v, pos: q.Positives(), binding: make(map[string]value.Value)}
	ev.order = greedyOrder(ev.pos, v, -1)
	return ev
}

// run enumerates satisfying assignments, invoking yield for each; yield
// returning false stops the enumeration.
func (ev *evaluator) run(yield func() bool) {
	ev.step(0, yield)
	mEvals.Inc()
	mIndexLookups.Add(ev.lookups)
	mScans.Add(ev.scans)
	mTuplesProbed.Add(ev.probes)
	ev.lookups, ev.scans, ev.probes = 0, 0, 0
}

// step processes the atom at position depth in the plan; at the bottom
// it re-verifies all conditions and yields.
func (ev *evaluator) step(depth int, yield func() bool) bool {
	if depth == len(ev.order) {
		if !ev.conditionsHold(true) {
			return true
		}
		return yield()
	}
	atom := ev.pos[ev.order[depth]]
	sc := ev.v.Schema(atom.Rel)
	// Split argument positions into bound (constant or bound variable)
	// and free. Bound values are normalized to the column kind so the
	// hash lookup matches stored (normalized) tuples.
	var boundCols []int
	var boundVals value.Tuple
	newVars := make(map[string]int) // var -> first free position
	for i, t := range atom.Args {
		if !t.IsVar() {
			boundCols = append(boundCols, i)
			boundVals = append(boundVals, sc.NormalizeValue(t.Const, i))
			continue
		}
		if val, ok := ev.binding[t.Var]; ok {
			boundCols = append(boundCols, i)
			boundVals = append(boundVals, sc.NormalizeValue(val, i))
			continue
		}
		if _, dup := newVars[t.Var]; !dup {
			newVars[t.Var] = i
		}
	}
	tryTuple := func(tup value.Tuple) bool {
		ev.probes++
		// Verify repeated new variables agree across positions.
		for i, t := range atom.Args {
			if t.IsVar() {
				if first, ok := newVars[t.Var]; ok && first != i {
					if !tup[first].Equal(tup[i]) {
						return true // mismatch; keep scanning
					}
				}
			}
		}
		var added []string
		for v, i := range newVars {
			ev.binding[v] = tup[i]
			added = append(added, v)
		}
		keepGoing := true
		if ev.conditionsHold(false) {
			keepGoing = ev.step(depth+1, yield)
		}
		for _, v := range added {
			delete(ev.binding, v)
		}
		return keepGoing
	}
	if len(boundCols) > 0 {
		ev.lookups++
		return ev.v.Lookup(atom.Rel, boundCols, boundVals.Key(), tryTuple)
	}
	ev.scans++
	return ev.v.Scan(atom.Rel, tryTuple)
}

// conditionsHold checks the negated atoms and comparisons whose
// variables are currently all bound; when final is true every condition
// must be fully bound (guaranteed for safe queries) and is checked.
func (ev *evaluator) conditionsHold(final bool) bool {
	if !ev.skipNegation {
		for _, a := range ev.q.Negatives() {
			tup, ok := ev.ground(a.Args)
			if !ok {
				if final {
					return false
				}
				continue
			}
			if ev.v.Contains(a.Rel, tup) {
				return false
			}
		}
	}
	for _, c := range ev.q.Comparisons {
		lv, lok := ev.termValue(c.Left)
		rv, rok := ev.termValue(c.Right)
		if !lok || !rok {
			if final {
				return false
			}
			continue
		}
		if !c.Op.Eval(lv.Compare(rv)) {
			return false
		}
	}
	return true
}

func (ev *evaluator) termValue(t Term) (value.Value, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := ev.binding[t.Var]
	return v, ok
}

func (ev *evaluator) ground(args []Term) (value.Tuple, bool) {
	tup := make(value.Tuple, len(args))
	for i, t := range args {
		v, ok := ev.termValue(t)
		if !ok {
			return nil, false
		}
		tup[i] = v
	}
	return tup, true
}

// aggregate enumerates all satisfying assignments, folds the aggregate
// over the bag of head projections, and applies the head comparison.
// Per the paper's chosen semantics, an empty bag yields false. For
// monotone heads (count/cntd/sum/max with > or >=) the enumeration
// stops as soon as the threshold is reached.
func (ev *evaluator) aggregate() (bool, error) {
	h := ev.q.Agg
	earlyOut := ev.q.IsMonotonic()
	var (
		n        int64
		sumI     int64
		sumF     float64
		sawF     bool
		extreme  value.Value
		first    = true
		distinct map[string]bool
	)
	if h.Func == AggCntd {
		distinct = make(map[string]bool)
	}
	crossed := func(cur value.Value) bool { return h.Op.Eval(cur.Compare(h.Bound)) }
	stop := false
	ev.run(func() bool {
		proj := make(value.Tuple, len(h.Vars))
		for i, v := range h.Vars {
			proj[i] = ev.binding[v]
		}
		switch h.Func {
		case AggCount:
			n++
			if earlyOut && crossed(value.Int(n)) {
				stop = true
			}
		case AggCntd:
			distinct[proj.Key()] = true
			if earlyOut && crossed(value.Int(int64(len(distinct)))) {
				stop = true
			}
		case AggSum:
			v := proj[0]
			if v.Kind() == value.KindFloat || sawF {
				sawF = true
				sumF += v.AsFloat()
			} else if v.Kind() == value.KindInt {
				sumI += v.AsInt()
			} else {
				sawF = true
				sumF += v.AsFloat() // panics for non-numerics, as documented
			}
			if earlyOut && crossed(sumValue(sumI, sumF, sawF)) {
				stop = true
			}
		case AggMax:
			if first || proj[0].Compare(extreme) > 0 {
				extreme = proj[0]
			}
			if earlyOut && crossed(extreme) {
				stop = true
			}
		case AggMin:
			if first || proj[0].Compare(extreme) < 0 {
				extreme = proj[0]
			}
		}
		first = false
		return !stop
	})
	if first {
		// Empty bag: false under the paper's chosen semantics.
		return false, nil
	}
	var result value.Value
	switch h.Func {
	case AggCount:
		result = value.Int(n)
	case AggCntd:
		result = value.Int(int64(len(distinct)))
	case AggSum:
		result = sumValue(sumI, sumF, sawF)
	case AggMax, AggMin:
		result = extreme
	default:
		return false, fmt.Errorf("query: unknown aggregate %q", h.Func)
	}
	return h.Op.Eval(result.Compare(h.Bound)), nil
}

func sumValue(sumI int64, sumF float64, sawF bool) value.Value {
	if sawF {
		return value.Float(sumF + float64(sumI))
	}
	return value.Int(sumI)
}

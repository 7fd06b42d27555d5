package query

import (
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// EvalReference is a naive nested-loop evaluator with the same
// semantics as Eval. It performs no planning, no index lookups, and no
// early termination, deriving its answer from first principles:
// enumerate every combination of tuples for the positive atoms, keep
// the combinations that induce a consistent assignment satisfying all
// negated atoms and comparisons, and fold the aggregate over the
// surviving assignments. It is the oracle the compiled engine is
// tested against; production code calls Eval.
func EvalReference(q *Query, v relation.View) (bool, error) {
	if err := q.CheckAgainst(v); err != nil {
		return false, err
	}
	// Deduplicate assignments: distinct tuple combinations that induce
	// the same variable assignment are one element of H.
	byKey := make(map[string]map[string]value.Value)
	vars := q.Vars()
	referenceAssignments(q, v, true, func(b map[string]value.Value) bool {
		var keyTuple value.Tuple
		for _, vn := range vars {
			keyTuple = append(keyTuple, b[vn])
		}
		byKey[keyTuple.Key()] = b
		return true
	})
	if q.Agg == nil {
		return len(byKey) > 0, nil
	}
	return referenceAggregate(q.Agg, byKey)
}

// referenceAssignments is the reference enumerator: it tries every
// combination of tuples for the positive atoms of the (already
// schema-checked) query and yields the assignment each consistent
// combination induces, once per combination, in the multiset sense of
// Assignments. Negated atoms are checked only when checkNegation is
// set; the aggregate head is ignored. Each yielded map is fresh. yield
// returning false stops the enumeration.
func referenceAssignments(q *Query, v relation.View, checkNegation bool, yield func(map[string]value.Value) bool) {
	pos := q.Positives()
	// Materialize candidate tuples per positive atom.
	choices := make([][]value.Tuple, len(pos))
	for i, a := range pos {
		v.Scan(a.Rel, func(t value.Tuple) bool {
			choices[i] = append(choices[i], t)
			return true
		})
	}
	combo := make([]value.Tuple, len(pos))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pos) {
			if b, ok := bindingOf(pos, combo, v, q, checkNegation); ok {
				return yield(b)
			}
			return true
		}
		for _, t := range choices[i] {
			combo[i] = t
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// bindingOf attempts to unify the atoms with the chosen tuples and
// check every condition (negated atoms only when checkNegation is
// set); it returns the induced assignment on success.
func bindingOf(pos []Atom, combo []value.Tuple, v relation.View, q *Query, checkNegation bool) (map[string]value.Value, bool) {
	b := make(map[string]value.Value)
	for i, a := range pos {
		t := combo[i]
		for j, arg := range a.Args {
			if !arg.IsVar() {
				if !arg.Const.Equal(t[j]) {
					return nil, false
				}
				continue
			}
			if prev, ok := b[arg.Var]; ok {
				if !prev.Equal(t[j]) {
					return nil, false
				}
				continue
			}
			b[arg.Var] = t[j]
		}
	}
	if checkNegation {
		for _, a := range q.Negatives() {
			tup := make(value.Tuple, len(a.Args))
			for j, arg := range a.Args {
				if arg.IsVar() {
					tup[j] = b[arg.Var]
				} else {
					tup[j] = arg.Const
				}
			}
			if v.Contains(a.Rel, tup) {
				return nil, false
			}
		}
	}
	for _, c := range q.Comparisons {
		lv, rv := c.Left.Const, c.Right.Const
		if c.Left.IsVar() {
			lv = b[c.Left.Var]
		}
		if c.Right.IsVar() {
			rv = b[c.Right.Var]
		}
		if !c.Op.Eval(lv.Compare(rv)) {
			return nil, false
		}
	}
	return b, true
}

func referenceAggregate(h *AggHead, assignments map[string]map[string]value.Value) (bool, error) {
	if len(assignments) == 0 {
		return false, nil
	}
	var bag []value.Tuple
	for _, b := range assignments {
		proj := make(value.Tuple, len(h.Vars))
		for i, vn := range h.Vars {
			proj[i] = b[vn]
		}
		bag = append(bag, proj)
	}
	var result value.Value
	switch h.Func {
	case AggCount:
		result = value.Int(int64(len(bag)))
	case AggCntd:
		distinct := make(map[string]bool)
		for _, p := range bag {
			distinct[p.Key()] = true
		}
		result = value.Int(int64(len(distinct)))
	case AggSum:
		sum := 0.0
		allInt := true
		for _, p := range bag {
			if p[0].Kind() != value.KindInt {
				allInt = false
			}
			sum += p[0].AsFloat()
		}
		if allInt {
			result = value.Int(int64(sum))
		} else {
			result = value.Float(sum)
		}
	case AggMax:
		result = bag[0][0]
		for _, p := range bag[1:] {
			if p[0].Compare(result) > 0 {
				result = p[0]
			}
		}
	case AggMin:
		result = bag[0][0]
		for _, p := range bag[1:] {
			if p[0].Compare(result) < 0 {
				result = p[0]
			}
		}
	}
	return h.Op.Eval(result.Compare(h.Bound)), nil
}

package query

import "blockchaindb/internal/value"

// Simplify rewrites the query into an equivalent, usually cheaper form:
//
//   - constant⋈constant comparisons are folded away (a false one makes
//     the whole query unsatisfiable);
//   - x = c substitutes the constant into every occurrence of x
//     (enabling index lookups and the Covers filter), unless x is a
//     head or aggregate variable, which must remain variables;
//   - x = y merges the two variables (y is renamed to x everywhere,
//     including heads);
//   - trivially-true self-comparisons (x = x, x <= x, x >= x) are
//     dropped; trivially-false ones (x != x, x < x, x > x) make the
//     query unsatisfiable;
//   - duplicate atoms and comparisons are removed (set semantics makes
//     repeated identical atoms redundant).
//
// It returns the simplified query and false when the rewrite proved the
// query unsatisfiable on every database (the caller can then report a
// denial constraint as trivially satisfied). The input is not modified.
func Simplify(q *Query) (*Query, bool) {
	out := q.clone()
	pinned := make(map[string]bool) // vars that must stay variables
	for _, v := range out.HeadVars {
		pinned[v] = true
	}
	if out.Agg != nil {
		for _, v := range out.Agg.Vars {
			pinned[v] = true
		}
	}

	// Iterate to a fixpoint: substitutions can expose new folds.
	for changed := true; changed; {
		changed = false
		kept := out.Comparisons[:0]
		for _, c := range out.Comparisons {
			switch {
			case !c.Left.IsVar() && !c.Right.IsVar():
				if !c.Op.Eval(c.Left.Const.Compare(c.Right.Const)) {
					return out, false
				}
				changed = true // drop a true constant comparison
			case c.Left.IsVar() && c.Right.IsVar() && c.Left.Var == c.Right.Var:
				switch c.Op {
				case OpEq, OpLe, OpGe:
					changed = true // x ⋈ x trivially true: drop
				default:
					return out, false // x != x, x < x, x > x
				}
			case c.Op == OpEq && c.Left.IsVar() && c.Right.IsVar():
				// Merge variables; prefer eliminating an unpinned one.
				from, to := c.Right, c.Left
				if pinned[from.Var] && !pinned[to.Var] {
					from, to = to, from
				}
				if pinned[from.Var] {
					// Both pinned: rename is still sound (the head
					// reports the shared value either way).
					substituteVar(out, from.Var, to)
					renamePinned(out, from.Var, to.Var)
					delete(pinned, from.Var)
					pinned[to.Var] = true
				} else {
					substituteVar(out, from.Var, to)
				}
				changed = true
			case c.Op == OpEq && (c.Left.IsVar() != c.Right.IsVar()):
				variable, constant := c.Left, c.Right
				if !variable.IsVar() {
					variable, constant = c.Right, c.Left
				}
				if pinned[variable.Var] {
					kept = append(kept, c)
					continue
				}
				substituteVar(out, variable.Var, constant)
				changed = true
			default:
				kept = append(kept, c)
			}
		}
		out.Comparisons = kept
	}
	dedup(out)
	return out, true
}

// Bind returns the Boolean query q_t: q with each head variable
// replaced by the value of t at its position, so that q_t holds in a
// world exactly when q returns t there. t must carry one value per head
// variable. The input is not modified.
func (q *Query) Bind(t value.Tuple) *Query {
	out := q.clone()
	out.HeadVars = nil
	for i, v := range q.HeadVars {
		substituteVar(out, v, C(t[i]))
	}
	return out
}

// clone returns a copy of q that a rewrite may modify in place.
func (q *Query) clone() *Query {
	out := &Query{
		Name:     q.Name,
		HeadVars: append([]string(nil), q.HeadVars...),
		Atoms:    make([]Atom, len(q.Atoms)),
	}
	for i, a := range q.Atoms {
		out.Atoms[i] = Atom{Rel: a.Rel, Args: append([]Term(nil), a.Args...), Negated: a.Negated}
	}
	out.Comparisons = append(out.Comparisons, q.Comparisons...)
	if q.Agg != nil {
		agg := *q.Agg
		agg.Vars = append([]string(nil), q.Agg.Vars...)
		out.Agg = &agg
	}
	return out
}

// substituteVar replaces every occurrence of the variable with the term
// in atoms and comparisons.
func substituteVar(q *Query, name string, t Term) {
	for ai := range q.Atoms {
		for i, arg := range q.Atoms[ai].Args {
			if arg.IsVar() && arg.Var == name {
				q.Atoms[ai].Args[i] = t
			}
		}
	}
	for ci := range q.Comparisons {
		if q.Comparisons[ci].Left.IsVar() && q.Comparisons[ci].Left.Var == name {
			q.Comparisons[ci].Left = t
		}
		if q.Comparisons[ci].Right.IsVar() && q.Comparisons[ci].Right.Var == name {
			q.Comparisons[ci].Right = t
		}
	}
}

// renamePinned updates head and aggregate variable lists after a merge.
func renamePinned(q *Query, from, to string) {
	for i, v := range q.HeadVars {
		if v == from {
			q.HeadVars[i] = to
		}
	}
	if q.Agg != nil {
		for i, v := range q.Agg.Vars {
			if v == from {
				q.Agg.Vars[i] = to
			}
		}
	}
}

// dedup removes duplicate atoms (same relation, polarity, and argument
// list) and duplicate comparisons.
func dedup(q *Query) {
	seenAtoms := make(map[string]bool, len(q.Atoms))
	atoms := q.Atoms[:0]
	for _, a := range q.Atoms {
		key := a.String()
		if seenAtoms[key] {
			continue
		}
		seenAtoms[key] = true
		atoms = append(atoms, a)
	}
	q.Atoms = atoms
	seenCmp := make(map[string]bool, len(q.Comparisons))
	cmps := q.Comparisons[:0]
	for _, c := range q.Comparisons {
		key := c.String()
		if seenCmp[key] {
			continue
		}
		seenCmp[key] = true
		cmps = append(cmps, c)
	}
	q.Comparisons = cmps
}

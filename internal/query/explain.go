package query

import (
	"fmt"
	"strings"

	"blockchaindb/internal/relation"
)

// Explain renders the compiled plan for the query against the view: the
// join order chosen for the positive atoms, which argument positions
// each step binds through an index lookup versus a full scan, where
// each comparison and negated atom was pushed down (the earliest step
// at which its variables are bound), and the query's static properties.
// For a monotone query it also lists the delta-first join order of each
// delta position that incremental world evaluation (EvalDelta) runs.
// Intended for debugging slow denial constraints and for teaching what
// the evaluator does.
func Explain(q *Query, v relation.View) (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	p, err := Compile(q, v)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", q)
	fmt.Fprintf(&b, "properties: positive=%v monotonic=%v connected=%v aggregate=%v\n",
		q.IsPositive(), q.IsMonotonic(), q.IsConnected(), q.IsAggregate())
	for _, reason := range p.deadConds {
		fmt.Fprintf(&b, "unsatisfiable: %s (the body can never hold)\n", reason)
	}
	for _, a := range p.droppedNegs {
		fmt.Fprintf(&b, "dropped: %s (its constant cannot occur in the column, so the negation always holds)\n", a)
	}
	for i := range p.preNegs {
		fmt.Fprintf(&b, "first: check %s absent (ground; tested once per evaluation)\n", p.preNegs[i].src)
	}
	for i := range p.main.steps {
		st := &p.main.steps[i]
		sc := v.Schema(st.rel)
		var lookupCols, freeVars []string
		for j := range st.key {
			kp := &st.key[j]
			lookupCols = append(lookupCols, fmt.Sprintf("%s=%s", sc.Attrs[kp.col].Name, st.src.Args[kp.col]))
		}
		for _, out := range st.outSlots {
			freeVars = append(freeVars, p.slotNames[out.slot])
		}
		access := "scan"
		if len(lookupCols) > 0 {
			access = "index lookup on " + strings.Join(lookupCols, ", ")
		}
		fmt.Fprintf(&b, "step %d: %s (%d rows) via %s", i+1, st.rel, v.Count(st.rel), access)
		if len(freeVars) > 0 {
			fmt.Fprintf(&b, ", binding %s", strings.Join(freeVars, ", "))
		}
		b.WriteByte('\n')
		for _, eq := range st.eqChecks {
			fmt.Fprintf(&b, "  require columns %s = %s (repeated variable)\n",
				sc.Attrs[eq[0]].Name, sc.Attrs[eq[1]].Name)
		}
		for j := range st.cmps {
			fmt.Fprintf(&b, "  then: check %s (pushed down to step %d)\n", *st.cmps[j].src, i+1)
		}
		for j := range st.negs {
			fmt.Fprintf(&b, "  then: check %s absent (pushed down to step %d)\n", st.negs[j].src, i+1)
		}
	}
	for _, c := range p.foldedCmps {
		fmt.Fprintf(&b, "folded: %s is constant and true\n", c)
	}
	if len(p.deltas) > 0 {
		b.WriteString("delta orders (incremental worlds: a pass per atom, over the assignments whose first new tuple is in that atom):\n")
		for i := range p.deltas {
			o := &p.deltas[i]
			fmt.Fprintf(&b, "  delta %d from %s: ", i+1, o.steps[0].src)
			o.summarize(&b)
			b.WriteByte('\n')
		}
	}
	if q.Agg != nil {
		fmt.Fprintf(&b, "fold: %s over all assignments", q.Agg)
		if q.IsMonotonic() {
			b.WriteString(" (early exit once the threshold is crossed)")
		}
		b.WriteByte('\n')
	}
	if len(q.HeadVars) > 0 {
		fmt.Fprintf(&b, "project: distinct (%s)\n", strings.Join(q.HeadVars, ", "))
	}
	return b.String(), nil
}

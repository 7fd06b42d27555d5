package core

import (
	"context"
	"fmt"
	"sort"

	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// aggFDOnlyApplies reports whether the PTIME aggregate solver covers
// the query: a positive aggregate query over an IND-free database whose
// head is anti-monotone-friendly — the aggregate value only grows with
// the world (count, cntd, sum, max) and the comparison asks for a small
// value (<, <=), or dually min with (>, >=). Theorem 2.2 (and the
// max/min duality remark) places these fragments in PTIME.
func aggFDOnlyApplies(q *query.Query) bool {
	if q.Agg == nil || !q.IsPositive() {
		return false
	}
	switch q.Agg.Func {
	case query.AggCount, query.AggCntd, query.AggSum, query.AggMax:
		return q.Agg.Op == query.OpLt || q.Agg.Op == query.OpLe
	case query.AggMin:
		return q.Agg.Op == query.OpGt || q.Agg.Op == query.OpGe
	default:
		return false
	}
}

// aggFDOnlyDCSat decides DCSat for the aggLess fragment on IND-free
// databases in polynomial time (data complexity). The insight: for
// these heads the aggregate over a world's assignment bag only grows as
// the world grows (sum assumes non-negative values, as elsewhere), so
// if any world satisfies [α(B) θ c] with a non-empty bag, then so does
// the minimal world R ∪ S for a support S of any single assignment in
// that world. The solver therefore enumerates assignments of the body
// over R ∪ ∪T, enumerates each assignment's fd-compatible supports, and
// evaluates the full aggregate on each minimal world. live is the
// database's fd-live pending slots.
func aggFDOnlyDCSat(ctx context.Context, d *possible.DB, q *query.Query, live []int) (*Result, error) {
	if d.Constraints.HasINDs() {
		return nil, fmt.Errorf("core: aggregate fd-only solver requires a database without inclusion dependencies")
	}
	if !aggFDOnlyApplies(q) {
		return nil, fmt.Errorf("core: aggregate fd-only solver handles positive {count,cntd,sum,max} with < "+
			"(or min with >), not %s", q.Agg)
	}
	res := &Result{Satisfied: true}
	union := relation.NewOverlay(d.State)
	for _, i := range live {
		union.Add(d.Pending[i])
	}
	pos := q.Positives()
	var violated bool
	var witness []int
	var ctxErr error
	assignments := 0
	seenWorld := make(map[string]bool)
	err := query.Assignments(q, union, true, func(binding *query.Binding) bool {
		if assignments++; assignments%ctxCheckEvery == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		suppliers, usable := supportSuppliers(d, live, pos, binding)
		if !usable {
			return true
		}
		hit := false
		forEachCompatibleSupport(d, suppliers, func(support []int) bool {
			key := supportKey(support)
			if seenWorld[key] {
				return true
			}
			seenWorld[key] = true
			world := relation.NewOverlay(d.State)
			for _, ti := range support {
				world.Add(d.Pending[ti])
			}
			res.Stats.WorldsEvaluated++
			ok, err := query.Eval(q, world)
			if err != nil {
				return true // schema already validated; unreachable
			}
			if ok {
				hit = true
				witness = support
				return false
			}
			return true
		})
		if hit {
			violated = true
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if ctxErr != nil {
		return res, ctxErr // partial world count for the flight recorder
	}
	if violated {
		res.Satisfied = false
		res.Witness = witness
	}
	return res, nil
}

// supportKey canonicalizes a sorted support set for deduplication.
func supportKey(support []int) string {
	b := make([]byte, 0, len(support)*3)
	for _, v := range support {
		b = append(b, byte(v>>16), byte(v>>8), byte(v), ',')
	}
	return string(b)
}

// supportSuppliers grounds the positive atoms under the assignment and
// collects, per ground tuple absent from the state, the live
// transactions able to supply it. usable is false when some tuple has
// no supplier.
func supportSuppliers(d *possible.DB, live []int, pos []query.Atom, binding *query.Binding) ([][]int, bool) {
	var suppliers [][]int
	for _, a := range pos {
		tup := groundAtom(a, binding)
		if d.State.Contains(a.Rel, tup) {
			continue
		}
		var cands []int
		for _, ti := range live {
			for _, t := range d.Pending[ti].Tuples(a.Rel) {
				if t.Equal(tup) {
					cands = append(cands, ti)
					break
				}
			}
		}
		if len(cands) == 0 {
			return nil, false
		}
		suppliers = append(suppliers, cands)
	}
	return suppliers, true
}

// forEachCompatibleSupport enumerates the distinct mutually
// fd-compatible supplier combinations (as sorted index sets), calling
// yield for each; yield returning false stops. The empty combination is
// yielded when suppliers is empty (the state alone supports the
// assignment).
func forEachCompatibleSupport(d *possible.DB, suppliers [][]int, yield func(support []int) bool) {
	chosen := make(map[int]bool)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(suppliers) {
			support := make([]int, 0, len(chosen))
			for ti := range chosen {
				support = append(support, ti)
			}
			sort.Ints(support)
			return yield(support)
		}
		for _, cand := range suppliers[i] {
			if chosen[cand] {
				if !rec(i + 1) {
					return false
				}
				continue
			}
			compatible := true
			for other := range chosen {
				if !d.Constraints.FDCompatible(d.Pending[cand], d.Pending[other]) {
					compatible = false
					break
				}
			}
			if !compatible {
				continue
			}
			chosen[cand] = true
			ok := rec(i + 1)
			delete(chosen, cand)
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}

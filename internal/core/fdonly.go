package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
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

// fdOnlyDCSat is the PTIME support search behind Theorem 1.1 and
// Theorem 2.2 for databases whose constraints contain no inclusion
// dependencies. In such databases a set of transactions forms a
// possible world exactly when each is fd-consistent internally, with
// the state, and pairwise (order never matters without INDs). The
// search enumerates the assignments of q's positive atoms into
// R ∪ ∪T, picks for each one every fd-compatible set S of live
// transactions that supplies its tuples missing from R, and tests the
// minimal world R ∪ S:
//
//   - a conjunctive q holds in some world iff, for some assignment and
//     support, R ∪ S also satisfies q's negated atoms under that
//     assignment (positive atoms only gain tuples as the world grows,
//     so R ∪ S is the best world for the negations);
//   - an aggLess head (see aggFDOnlyApplies) only moves towards
//     violation as the world shrinks, so if some world satisfies
//     [α(B) θ c] with a non-empty bag, so does R ∪ S for a support S of
//     any one assignment in that world; the full aggregate is evaluated
//     on each distinct minimal world.
//
// |S| is bounded by the (constant) number of query atoms, so trying
// every support is polynomial in the data. The union and the live
// slots come from the prepared view. The union holds every pending
// transaction, live or not, but an assignment using a tuple only a
// dead transaction supplies finds no supplier and is discarded.
func fdOnlyDCSat(ctx context.Context, d *possible.DB, q *query.Query, view preparedView) (*Result, error) {
	if d.Constraints.HasINDs() {
		return nil, fmt.Errorf("core: AlgoFDOnly requires a database without inclusion dependencies")
	}
	if q.IsAggregate() && !aggFDOnlyApplies(q) {
		return nil, fmt.Errorf("core: aggregate fd-only solver handles positive {count,cntd,sum,max} with < "+
			"(or min with >), not %s", q.Agg)
	}
	res := &Result{Satisfied: true}
	sup := &supplierIndex{d: d, live: view.live(), pos: q.Positives()}
	// The aggregate test does not depend on the assignment, so each
	// distinct minimal world is evaluated once.
	holds, seen := negationsHold, map[string]bool(nil)
	if q.IsAggregate() {
		holds, seen = aggregateHolds, make(map[string]bool)
	}
	var ctxErr error
	assignments := 0
	err := query.Assignments(q, view.union(), false, func(binding *query.Binding) bool {
		if assignments++; assignments%ctxCheckEvery == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		suppliers, usable := sup.suppliers(binding)
		if !usable {
			return true
		}
		forEachCompatibleSupport(d, suppliers, func(support []int) bool {
			if seen != nil {
				key := supportKey(support)
				if seen[key] {
					return true
				}
				seen[key] = true
			}
			res.Stats.WorldsEvaluated++
			if holds(d, q, support, binding) {
				res.Satisfied = false
				res.Witness = support
				return false
			}
			return true
		})
		return res.Satisfied
	})
	if err != nil {
		return nil, err
	}
	if ctxErr != nil {
		return res, ctxErr // partial world count for the flight recorder
	}
	return res, nil
}

// ctxCheckEvery is how many assignments the fd-only solver processes
// between context polls.
const ctxCheckEvery = 64

// negationsHold is the conjunctive per-support test: the query's
// negated atoms, grounded under the assignment, are absent from the
// minimal world R ∪ support.
func negationsHold(d *possible.DB, q *query.Query, support []int, binding *query.Binding) bool {
	if len(q.Negatives()) == 0 {
		return true
	}
	world := minimalWorld(d, support)
	for _, a := range q.Negatives() {
		if world.Contains(a.Rel, groundAtom(a, binding)) {
			return false
		}
	}
	return true
}

// aggregateHolds is the aggLess per-support test: the full aggregate
// query holds on the minimal world R ∪ support.
func aggregateHolds(d *possible.DB, q *query.Query, support []int, _ *query.Binding) bool {
	// The schema was validated before the check started.
	ok, _ := query.Eval(q, minimalWorld(d, support))
	return ok
}

// minimalWorld is R ∪ support.
func minimalWorld(d *possible.DB, support []int) *relation.Overlay {
	world := relation.NewOverlay(d.State)
	for _, ti := range support {
		world.Add(d.Pending[ti])
	}
	return world
}

func groundAtom(a query.Atom, binding *query.Binding) value.Tuple {
	tup := make(value.Tuple, len(a.Args))
	for i, arg := range a.Args {
		if arg.IsVar() {
			// A variable the positive atoms never bind grounds to Null,
			// matching the reference evaluator's missing-binding value.
			tup[i], _ = binding.Value(arg.Var)
		} else {
			tup[i] = arg.Const
		}
	}
	return tup
}

// supportKey canonicalizes a sorted support set for deduplication.
func supportKey(support []int) string {
	b := make([]byte, 0, len(support)*3)
	for _, v := range support {
		b = append(b, byte(v>>16), byte(v>>8), byte(v), ',')
	}
	return string(b)
}

// supplierIndex maps the tuples of the live transactions, in the
// query's positive relations, to the live slots that hold them, so
// finding an assignment's suppliers costs one probe per ground atom
// rather than a scan of every live transaction. It is built on the
// first ground atom absent from the state: a check whose atoms all
// ground into R never builds it.
type supplierIndex struct {
	d       *possible.DB
	live    []int
	pos     []query.Atom
	holders map[string][]supplier // relation + equalKey of a tuple -> its holders, slots ascending; nil until built
	buf     []byte
}

// supplier is one live slot holding a tuple under a given key.
type supplier struct {
	slot int
	tup  value.Tuple
}

func (idx *supplierIndex) build() {
	idx.holders = make(map[string][]supplier)
	seen := make(map[string]bool, len(idx.pos))
	for _, a := range idx.pos {
		if seen[a.Rel] {
			continue
		}
		seen[a.Rel] = true
		for _, slot := range idx.live {
			for _, t := range idx.d.Pending[slot].Tuples(a.Rel) {
				k := string(idx.key(a.Rel, t))
				idx.holders[k] = append(idx.holders[k], supplier{slot, t})
			}
		}
	}
}

// key is the probe key of tuple t of rel, built in the index's buffer:
// tuples that are Equal get the same key.
func (idx *supplierIndex) key(rel string, t value.Tuple) []byte {
	idx.buf = append(append(idx.buf[:0], rel...), 0)
	idx.buf = appendEqualKey(idx.buf, t)
	return idx.buf
}

// suppliers grounds the positive atoms under the assignment and
// collects, per ground tuple absent from the state, the live slots
// able to supply it, ascending. usable is false when some tuple has no
// supplier.
func (idx *supplierIndex) suppliers(binding *query.Binding) ([][]int, bool) {
	var suppliers [][]int
	for _, a := range idx.pos {
		tup := groundAtom(a, binding)
		if idx.d.State.Contains(a.Rel, tup) {
			continue
		}
		if idx.holders == nil {
			idx.build()
		}
		var cands []int
		for _, h := range idx.holders[string(idx.key(a.Rel, tup))] {
			if (len(cands) == 0 || cands[len(cands)-1] != h.slot) && h.tup.Equal(tup) {
				cands = append(cands, h.slot)
			}
		}
		if len(cands) == 0 {
			return nil, false
		}
		suppliers = append(suppliers, cands)
	}
	return suppliers, true
}

// appendEqualKey appends to dst an encoding of t under which Equal
// tuples encode alike: a numeric value is encoded as its float64, with
// -0 and every NaN collapsed. Tuples that encode alike need not be
// Equal (two large ints may round to one float), so a probe still
// compares with Equal.
func appendEqualKey(dst []byte, t value.Tuple) []byte {
	for _, v := range t {
		if v.IsNumeric() {
			f := v.AsFloat()
			switch {
			case f == 0:
				f = 0
			case math.IsNaN(f):
				f = math.NaN()
			}
			v = value.Float(f)
		}
		dst = v.AppendKey(dst)
	}
	return dst
}

// forEachCompatibleSupport enumerates the mutually fd-compatible
// supplier combinations (as sorted index sets) depth first, calling
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

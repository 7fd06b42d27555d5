package query

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// This file is the compiled evaluation engine. A query is compiled once
// per (query, schema set) into a Plan: the greedy join order is fixed,
// every atom's bound/free column split is precomputed, constants are
// pre-normalized to their column kinds, variables are renumbered to
// integer slots into a flat value array (no map binding), repeated
// variables become index pairs checked in place, and every comparison
// and negated atom is pushed down to the earliest join depth at which
// all of its variables are bound — so each condition is checked exactly
// once per binding prefix instead of being re-derived and re-checked at
// every depth.
//
// The per-world runtime state lives in a Scratch that callers reuse
// across evaluations: slot array, per-depth index-key buffers, and
// per-depth probe closures. With warm view indexes the hot loop
// allocates nothing — index keys are built into reusable buffers and
// probed through View.LookupKey, which hashes and compares them in
// place.

// keyPart is one column of an index-lookup or negation key: either a
// pre-normalized constant or a slot whose runtime value is normalized
// to the column kind before encoding.
type keyPart struct {
	col  int
	slot int         // -1 for constants
	cval value.Value // normalized constant, when slot == -1
	kind value.Kind  // column kind, for runtime slot-value normalization
}

// slotCol records that a step binds tuple column col into slot.
type slotCol struct{ col, slot int }

// compiledCmp is a comparison with its terms resolved to slots or
// constants at compile time.
type compiledCmp struct {
	op             CmpOp
	lSlot, rSlot   int // -1 when the side is a constant
	lConst, rConst value.Value
	src            *Comparison // for Explain
}

// compiledNeg is a negated atom whose full-tuple key is assembled from
// parts (all columns, in order) and probed with View.ContainsKey.
type compiledNeg struct {
	rel   string
	parts []keyPart
	src   Atom
}

// planStep is one positive atom in join order.
type planStep struct {
	rel       string
	boundCols []int     // columns with a constant or an earlier-bound var
	key       []keyPart // index-key recipe, parallel to boundCols
	outSlots  []slotCol // free columns written into slots
	eqChecks  [][2]int  // repeated-variable positions that must agree
	cmps      []compiledCmp
	negs      []compiledNeg
	src       Atom
	pos       int // the atom's index among the query's positive atoms
}

// joinOrder is one compiled order over the positive atoms: the plan's
// main greedy order, or a delta-first order that EvalDelta runs for
// one delta position.
type joinOrder struct {
	steps  []planStep
	relIdx []int // per step: index of its relation in Plan.relNames
	// Delta-first orders only: per step, the window its pass probes —
	// atoms before the order's first atom (in body order) below the
	// floor, the first atom from the floor, later atoms the full view.
	modes []uint8
}

// Plan is a compiled query. Plans are immutable after Compile and safe
// for concurrent use; per-evaluation state lives in a Scratch.
type Plan struct {
	q         *Query
	relNames  []string // distinct relations referenced, any order
	schemas   []*relation.Schema
	slotNames []string // slot -> variable name
	slotOf    map[string]int
	main      joinOrder
	deltas    []joinOrder   // per positive atom, when deltaOK: EvalDelta's orders
	preNegs   []compiledNeg // ground negations, tested once per run
	headSlots []int         // HeadVars -> slots (-1 if unbound)
	aggSlots  []int         // Agg.Vars -> slots (-1 if unbound)
	deltaOK   bool          // EvalDelta applies: the query is monotone

	// unsatCmp: a comparison references a variable no positive atom
	// binds, or a constant comparison is false — no assignment can ever
	// satisfy the body. unsatNeg is the same for negated atoms, but only
	// applies when negation is checked (Assignments may skip it).
	unsatCmp bool
	unsatNeg bool

	// Explain-only records.
	droppedNegs []Atom       // negations that can never match (bad constant)
	foldedCmps  []Comparison // constant comparisons folded to true
	deadConds   []string     // reasons the plan is unsatisfiable
}

// greedyOrder orders positive atoms: at each step pick the atom with
// the most bound argument positions (constants plus variables bound by
// earlier atoms); ties broken by smaller relation cardinality. Atoms
// with no bound positions come as late as possible, so scans are
// replaced by indexed lookups wherever the join graph allows. A first
// atom >= 0 is forced to the front, its variables bound for the rest.
func greedyOrder(pos []Atom, v relation.View, first int) []int {
	n := len(pos)
	order := make([]int, 0, n)
	used := make([]bool, n)
	boundVars := make(map[string]bool)
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, t := range pos[i].Args {
			if t.IsVar() {
				boundVars[t.Var] = true
			}
		}
	}
	if first >= 0 {
		take(first)
	}
	for len(order) < n {
		best, bestScore, bestCount := -1, -1, 0
		for i, a := range pos {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if !t.IsVar() || boundVars[t.Var] {
					score++
				}
			}
			count := v.Count(a.Rel)
			if score > bestScore || (score == bestScore && count < bestCount) {
				best, bestScore, bestCount = i, score, count
			}
		}
		take(best)
	}
	return order
}

// placedCond is a comparison or negated atom awaiting push-down: it is
// checked at the earliest step of an order at which all of vars are
// bound.
type placedCond struct {
	vars []string
	cmp  *compiledCmp
	neg  *compiledNeg
}

// Compile builds a Plan for the query against the view's schemas. The
// join orders additionally consult the view's current cardinalities,
// which affects performance, never results: a plan compiled against one
// view is correct for any view with the same schemas.
func Compile(q *Query, v relation.View) (*Plan, error) {
	start := time.Now()
	if err := q.CheckAgainst(v); err != nil {
		return nil, err
	}
	p := &Plan{q: q, slotOf: make(map[string]int)}
	relIdx := make(map[string]int)
	for _, a := range q.Atoms {
		if _, ok := relIdx[a.Rel]; !ok {
			relIdx[a.Rel] = len(p.relNames)
			p.relNames = append(p.relNames, a.Rel)
			p.schemas = append(p.schemas, v.Schema(a.Rel))
		}
	}
	p.deltaOK = q.IsMonotonic()

	pos := q.Positives()
	var bindDepth map[string]int
	p.main, bindDepth = p.compileOrder(pos, greedyOrder(pos, v, -1), v, relIdx)

	// Classify comparisons once: constant ones fold now, ones over a
	// variable no positive atom binds make the plan unsatisfiable, the
	// rest are pushed down into every order.
	var conds []placedCond
	for i := range q.Comparisons {
		c := &q.Comparisons[i]
		cc := &compiledCmp{op: c.Op, lSlot: -1, rSlot: -1, src: c}
		var vars []string
		unbound := false
		for _, side := range []struct {
			t  Term
			s  *int
			cv *value.Value
		}{{c.Left, &cc.lSlot, &cc.lConst}, {c.Right, &cc.rSlot, &cc.rConst}} {
			if !side.t.IsVar() {
				*side.cv = side.t.Const
				continue
			}
			if _, ok := bindDepth[side.t.Var]; !ok {
				unbound = true
				continue
			}
			*side.s = p.slotOf[side.t.Var]
			vars = append(vars, side.t.Var)
		}
		switch {
		case unbound:
			// No positive atom binds the variable: no assignment
			// ever satisfies the body.
			p.unsatCmp = true
			p.deadConds = append(p.deadConds, fmt.Sprintf("%s references an unbound variable", c))
		case len(vars) == 0:
			if cc.op.Eval(cc.lConst.Compare(cc.rConst)) {
				p.foldedCmps = append(p.foldedCmps, *c)
			} else {
				p.unsatCmp = true
				p.deadConds = append(p.deadConds, fmt.Sprintf("%s is constant and false", c))
			}
		default:
			conds = append(conds, placedCond{vars: vars, cmp: cc})
		}
	}

	// Negated atoms likewise. A constant that cannot be normalized to
	// its column kind can never occur in a stored tuple, so the
	// negation always holds and is dropped. Ground negations
	// (view-dependent, so not foldable at compile time) become per-run
	// "pre" checks.
	for _, a := range q.Negatives() {
		sc := v.Schema(a.Rel)
		cn := &compiledNeg{rel: a.Rel, src: a}
		var vars []string
		unbound, dropped := false, false
		for i, t := range a.Args {
			kind := sc.Attrs[i].Kind
			if t.IsVar() {
				if _, ok := bindDepth[t.Var]; !ok {
					unbound = true
					continue
				}
				cn.parts = append(cn.parts, keyPart{col: i, slot: p.slotOf[t.Var], kind: kind})
				vars = append(vars, t.Var)
				continue
			}
			nc, ok := value.Normalize(t.Const, kind)
			if !ok {
				dropped = true
				continue
			}
			cn.parts = append(cn.parts, keyPart{col: i, slot: -1, cval: nc, kind: kind})
		}
		switch {
		case unbound:
			p.unsatNeg = true
			p.deadConds = append(p.deadConds, fmt.Sprintf("%s references an unbound variable", a))
		case dropped:
			p.droppedNegs = append(p.droppedNegs, a)
		case len(vars) == 0:
			p.preNegs = append(p.preNegs, *cn)
		default:
			conds = append(conds, placedCond{vars: vars, neg: cn})
		}
	}
	place(&p.main, conds, bindDepth)

	// One delta-first order per positive atom: EvalDelta's pass for
	// delta position d starts from atom d's new tuples, so its cost
	// follows the delta instead of scanning the pre-delta world.
	if p.deltaOK {
		for d := range pos {
			o, bd := p.compileOrder(pos, greedyOrder(pos, v, d), v, relIdx)
			o.modes = make([]uint8, len(o.steps))
			for i := range o.steps {
				switch a := o.steps[i].pos; {
				case a < d:
					o.modes[i] = winBelow
				case a == d:
					o.modes[i] = winFrom
				}
			}
			place(&o, conds, bd)
			p.deltas = append(p.deltas, o)
		}
	}

	slotOr := func(name string) int {
		if s, ok := p.slotOf[name]; ok {
			return s
		}
		return -1
	}
	for _, hv := range q.HeadVars {
		p.headSlots = append(p.headSlots, slotOr(hv))
	}
	if q.Agg != nil {
		for _, av := range q.Agg.Vars {
			p.aggSlots = append(p.aggSlots, slotOr(av))
		}
	}
	mCompileNs.Observe(time.Since(start).Nanoseconds())
	return p, nil
}

// compileOrder compiles the positive atoms in the given order: each
// step's bound/free column split, its index-key recipe and its
// repeated-variable checks. Variables get slots on first sight, shared
// by every order of the plan. It also returns the step depth at which
// each variable is first bound.
func (p *Plan) compileOrder(pos []Atom, order []int, v relation.View, relIdx map[string]int) (joinOrder, map[string]int) {
	o := joinOrder{steps: make([]planStep, 0, len(order)), relIdx: make([]int, 0, len(order))}
	bindDepth := make(map[string]int)
	for depth, idx := range order {
		a := pos[idx]
		sc := v.Schema(a.Rel)
		st := planStep{rel: a.Rel, src: a, pos: idx}
	args:
		for i, t := range a.Args {
			kind := sc.Attrs[i].Kind
			if !t.IsVar() {
				st.boundCols = append(st.boundCols, i)
				st.key = append(st.key, keyPart{col: i, slot: -1, cval: sc.NormalizeValue(t.Const, i), kind: kind})
				continue
			}
			if d, ok := bindDepth[t.Var]; ok && d < depth {
				st.boundCols = append(st.boundCols, i)
				st.key = append(st.key, keyPart{col: i, slot: p.slot(t.Var), kind: kind})
				continue
			}
			for _, out := range st.outSlots {
				if p.slotNames[out.slot] == t.Var {
					// Repeated free variable: the first position binds it.
					st.eqChecks = append(st.eqChecks, [2]int{out.col, i})
					continue args
				}
			}
			bindDepth[t.Var] = depth
			st.outSlots = append(st.outSlots, slotCol{col: i, slot: p.slot(t.Var)})
		}
		o.steps = append(o.steps, st)
		o.relIdx = append(o.relIdx, relIdx[a.Rel])
	}
	return o, bindDepth
}

// slot returns the variable's slot, allocating the next one on first
// sight.
func (p *Plan) slot(name string) int {
	s, ok := p.slotOf[name]
	if !ok {
		s = len(p.slotNames)
		p.slotOf[name] = s
		p.slotNames = append(p.slotNames, name)
	}
	return s
}

// place pushes each condition down to the earliest step of the order
// at which all of its variables are bound, so it is checked exactly
// once per binding prefix.
func place(o *joinOrder, conds []placedCond, bindDepth map[string]int) {
	for _, c := range conds {
		d := -1
		for _, name := range c.vars {
			d = max(d, bindDepth[name])
		}
		st := &o.steps[d]
		if c.cmp != nil {
			st.cmps = append(st.cmps, *c.cmp)
		} else {
			st.negs = append(st.negs, *c.neg)
		}
	}
}

// Query returns the compiled query.
func (p *Plan) Query() *Query { return p.q }

// RelNames returns the distinct relations the plan probes, in the order
// EvalDelta's floors slice must follow. Callers must not mutate it.
func (p *Plan) RelNames() []string { return p.relNames }

// SupportsDelta reports whether EvalDelta is sound for this plan: the
// query is monotone (positive, and any aggregate is count, cntd, sum
// or max compared with > or >=), so satisfaction only ever switches on
// as the view grows and a new satisfying assignment — or a new
// contribution to the aggregate — must touch at least one delta tuple.
func (p *Plan) SupportsDelta() bool { return p.deltaOK }

// valid reports whether the plan's schema snapshot matches the view.
// Schema pointers are stable across State.Clone and Overlay
// construction, so a plan compiled against a Monitor's state remains
// valid for every possible-world overlay of that state.
func (p *Plan) valid(v relation.View) bool {
	for i, rel := range p.relNames {
		if v.Schema(rel) != p.schemas[i] {
			return false
		}
	}
	return true
}

// OrderSummary renders the main join order and condition placement in
// one line, e.g. "TxOut[1]>TxIn[4]+1c pre:1" — [n] is the number of
// bound key columns ("scan" when none), +Nc counts conditions checked
// at that step, and pre:N counts ground negations tested once per run.
func (p *Plan) OrderSummary() string {
	var b strings.Builder
	p.main.summarize(&b)
	if len(p.preNegs) > 0 {
		fmt.Fprintf(&b, " pre:%d", len(p.preNegs))
	}
	if p.unsatCmp || p.unsatNeg {
		b.WriteString(" unsat")
	}
	return b.String()
}

// summarize writes the order in OrderSummary's step notation; each step
// of a delta-first order is also tagged with the part of the view its
// pass probes ("new", "old", or nothing for all of it).
func (o *joinOrder) summarize(b *strings.Builder) {
	for i := range o.steps {
		st := &o.steps[i]
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(st.rel)
		if len(st.boundCols) > 0 {
			fmt.Fprintf(b, "[%d]", len(st.boundCols))
		} else {
			b.WriteString("[scan]")
		}
		if o.modes != nil {
			switch o.modes[i] {
			case winFrom:
				b.WriteString("new")
			case winBelow:
				b.WriteString("old")
			}
		}
		if n := len(st.cmps) + len(st.negs); n > 0 {
			fmt.Fprintf(b, "+%dc", n)
		}
	}
}

// Scratch holds the reusable per-evaluation state for running compiled
// plans: the slot array, per-depth index-key buffers, and per-depth
// probe closures. A Scratch may be reused across plans and views but
// must not be shared between concurrent evaluations; parallel workers
// each own one. Create one with NewScratch.
type Scratch struct {
	plan    *Plan
	ord     *joinOrder // the order being run: the plan's main one, or a delta-first one
	view    relation.View
	slots   []value.Value
	keyBufs [][]byte // per depth: LookupKey probes base then extra with recursion in between, so buffers cannot be shared across depths
	negBuf  []byte   // negation probes complete before any recursion
	try     []func(value.Tuple) bool
	yield   func() bool
	skipNeg bool

	// Reusable yields: found records a satisfying assignment and stops;
	// fold feeds the aggregate projection of each assignment into acc
	// and stops once its bound is crossed.
	found     bool
	acc       *Acc
	ownAcc    Acc // the accumulator plain Eval folds into
	yieldHit  func() bool
	yieldFold func() bool

	// Delta-evaluation window state (see delta.go). dv is nil for plain
	// Eval runs, keeping the windowed dispatch to a single pointer check
	// on the hot path. winModes aliases the running order's modes;
	// winFloors is per-depth.
	dv        DeltaView
	winModes  []uint8
	winFloors []int

	// Local instrument counts, flushed once per run.
	lookups int64
	scans   int64
	probes  int64

	// totalProbes survives flushes: the probe count accumulated over the
	// scratch's lifetime, harvested by the core layer for per-check cost
	// attribution.
	totalProbes int64
}

// NewScratch returns an empty Scratch; it grows to fit whatever plan it
// runs.
func NewScratch() *Scratch {
	sc := &Scratch{}
	sc.yieldHit = func() bool {
		sc.found = true
		return false // stop at the first satisfying assignment
	}
	sc.yieldFold = func() bool {
		if sc.acc.add(sc.plan.aggSlots, sc.slots) {
			sc.found = true
			return false
		}
		return true
	}
	return sc
}

// TotalProbes returns the tuple probes accumulated across every run
// this scratch has finished — the plan-probe term of a check's cost
// vector.
func (sc *Scratch) TotalProbes() int64 { return sc.totalProbes + sc.probes }

func (sc *Scratch) prepare(p *Plan, v relation.View, skipNeg bool, yield func() bool) {
	sc.plan, sc.ord, sc.view, sc.skipNeg, sc.yield = p, &p.main, v, skipNeg, yield
	sc.found = false
	if n := len(p.slotNames); cap(sc.slots) >= n {
		sc.slots = sc.slots[:n]
	} else {
		sc.slots = make([]value.Value, n)
	}
	n := len(p.main.steps)
	for len(sc.keyBufs) < n {
		sc.keyBufs = append(sc.keyBufs, nil)
	}
	for d := len(sc.try); d < n; d++ {
		d := d
		sc.try = append(sc.try, func(tup value.Tuple) bool { return sc.tryTuple(d, tup) })
	}
}

// finish flushes metrics and drops references the scratch should not
// retain while pooled.
func (sc *Scratch) finish() {
	mEvals.Inc()
	mIndexLookups.Add(sc.lookups)
	mScans.Add(sc.scans)
	mTuplesProbed.Add(sc.probes)
	sc.totalProbes += sc.probes
	sc.lookups, sc.scans, sc.probes = 0, 0, 0
	sc.plan, sc.ord, sc.view, sc.yield, sc.acc = nil, nil, nil, nil, nil
	sc.dv, sc.winModes = nil, nil
}

// run enumerates satisfying assignments over the current order,
// invoking the prepared yield for each; yield returning false stops
// the enumeration.
func (sc *Scratch) run() {
	p := sc.plan
	if p.unsatCmp || (!sc.skipNeg && p.unsatNeg) {
		return
	}
	if !sc.skipNeg {
		for i := range p.preNegs {
			if !sc.negHolds(&p.preNegs[i]) {
				return
			}
		}
	}
	sc.step(0)
}

// step resolves the atom at the given depth through an index lookup on
// its precomputed bound columns, or a scan when none are bound; at the
// bottom every condition has already been checked, so it yields.
func (sc *Scratch) step(depth int) bool {
	o := sc.ord
	if depth == len(o.steps) {
		return sc.yield()
	}
	st := &o.steps[depth]
	if len(st.boundCols) == 0 {
		sc.scans++
		if sc.dv != nil {
			switch sc.winModes[depth] {
			case winBelow:
				return sc.dv.ScanBelow(st.rel, sc.winFloors[depth], sc.try[depth])
			case winFrom:
				return sc.dv.ScanFrom(st.rel, sc.winFloors[depth], sc.try[depth])
			}
		}
		return sc.view.Scan(st.rel, sc.try[depth])
	}
	sc.lookups++
	buf := sc.keyBufs[depth][:0]
	for i := range st.key {
		kp := &st.key[i]
		if kp.slot < 0 {
			buf = kp.cval.AppendKey(buf)
			continue
		}
		v := sc.slots[kp.slot]
		// Normalize the bound value to the column kind so the probe key
		// matches stored (normalized) tuples; an un-normalizable value
		// keeps its encoding and the probe naturally misses, matching
		// Schema.NormalizeValue's return-unchanged semantics.
		if nv, ok := value.Normalize(v, kp.kind); ok {
			v = nv
		}
		buf = v.AppendKey(buf)
	}
	sc.keyBufs[depth] = buf
	if sc.dv != nil {
		switch sc.winModes[depth] {
		case winBelow:
			return sc.dv.LookupKeyBelow(st.rel, st.boundCols, buf, sc.winFloors[depth], sc.try[depth])
		case winFrom:
			return sc.dv.LookupKeyFrom(st.rel, st.boundCols, buf, sc.winFloors[depth], sc.try[depth])
		}
	}
	return sc.view.LookupKey(st.rel, st.boundCols, buf, sc.try[depth])
}

// tryTuple processes one candidate tuple at a depth: repeated-variable
// agreement, slot writes, then the conditions pushed down to this
// depth, then recursion. Slots never need unwinding on backtrack: a
// slot is only read at depths where compilation guarantees the current
// path has written it.
func (sc *Scratch) tryTuple(depth int, tup value.Tuple) bool {
	sc.probes++
	st := &sc.ord.steps[depth]
	for _, eq := range st.eqChecks {
		if !tup[eq[0]].Equal(tup[eq[1]]) {
			return true // mismatch; keep scanning
		}
	}
	for _, out := range st.outSlots {
		sc.slots[out.slot] = tup[out.col]
	}
	for i := range st.cmps {
		c := &st.cmps[i]
		lv, rv := c.lConst, c.rConst
		if c.lSlot >= 0 {
			lv = sc.slots[c.lSlot]
		}
		if c.rSlot >= 0 {
			rv = sc.slots[c.rSlot]
		}
		if !c.op.Eval(lv.Compare(rv)) {
			return true
		}
	}
	if !sc.skipNeg {
		for i := range st.negs {
			if !sc.negHolds(&st.negs[i]) {
				return true
			}
		}
	}
	return sc.step(depth + 1)
}

// negHolds reports whether the negated atom's ground tuple is absent
// from the view. A bound value that cannot inhabit its column means the
// tuple cannot exist, so the negation holds.
func (sc *Scratch) negHolds(n *compiledNeg) bool {
	buf := sc.negBuf[:0]
	for i := range n.parts {
		kp := &n.parts[i]
		if kp.slot < 0 {
			buf = kp.cval.AppendKey(buf)
			continue
		}
		nv, ok := value.Normalize(sc.slots[kp.slot], kp.kind)
		if !ok {
			sc.negBuf = buf
			return true
		}
		buf = nv.AppendKey(buf)
	}
	sc.negBuf = buf
	return !sc.view.ContainsKey(n.rel, buf)
}

// slotOr returns the slot's current value, or Null for -1 (a head or
// aggregate variable no positive atom binds), matching the reference
// evaluator's missing-binding value.
func (sc *Scratch) slotOr(s int) value.Value {
	if s < 0 {
		return value.Null
	}
	return sc.slots[s]
}

// Eval runs the plan over the view using the scratch: for aggregate
// queries it folds the aggregate over all assignments, otherwise it
// reports whether any satisfying assignment exists.
func (p *Plan) Eval(v relation.View, sc *Scratch) (bool, error) {
	if p.q.Agg == nil {
		sc.prepare(p, v, false, sc.yieldHit)
		sc.run()
		found := sc.found
		sc.finish()
		return found, nil
	}
	sc.ownAcc.reset(p.q.Agg, p.deltaOK)
	return p.fold(v, sc, &sc.ownAcc), nil
}

// EvalBase evaluates the plan on the root world of an incremental
// walk — a stack of growing worlds that EvalDelta then follows. It is
// Eval, except that for an aggregate plan it resets acc and folds the
// whole view into it, so each later EvalDelta adds only the new
// assignments. acc may be nil for plans without an aggregate; when
// given, it is reset either way, so a walk starts with no frames.
func (p *Plan) EvalBase(v relation.View, sc *Scratch, acc *Acc) (bool, error) {
	if acc != nil {
		acc.reset(p.q.Agg, p.deltaOK)
	}
	if p.q.Agg == nil {
		return p.Eval(v, sc)
	}
	if acc == nil {
		return false, fmt.Errorf("query: EvalBase on an aggregate plan needs an accumulator")
	}
	return p.fold(v, sc, acc), nil
}

// fold runs the plan over the view, feeding every assignment's
// aggregate projection into acc, and reports whether the aggregate's
// head comparison holds. A monotone head stops as soon as the bound is
// crossed; an empty bag yields false (see referenceAggregate).
func (p *Plan) fold(v relation.View, sc *Scratch, acc *Acc) bool {
	sc.prepare(p, v, false, sc.yieldFold)
	sc.acc = acc
	sc.run()
	found := sc.found
	sc.finish()
	if found {
		return true
	}
	return acc.holds()
}

// planCache maps a query's canonical text to the plans compiled for it,
// one per schema set. Keying by text rather than by *Query lets the
// fresh Query each check's Simplify returns share one plan, while two
// databases with identical constraint text but different schemas keep
// separate plans, picked by Plan.valid.
var planCache = struct {
	sync.RWMutex
	m map[string][]*Plan
	n int
}{m: make(map[string][]*Plan)}

// planCacheCap bounds the cache's plans; at the cap the whole map is
// dropped — the working set of live constraints is tiny and
// recompilation is microseconds, so eviction sophistication buys
// nothing.
const planCacheCap = 256

// PlanFor returns a compiled plan for the query against the view,
// cached by the query's canonical text and the view's schemas. Safe
// for concurrent use.
func PlanFor(q *Query, v relation.View) (*Plan, error) {
	return PlanForText(q.String(), q, v)
}

// PlanForText is PlanFor for a caller that already holds the query's
// canonical text, key = q.String().
func PlanForText(key string, q *Query, v relation.View) (*Plan, error) {
	planCache.RLock()
	for _, p := range planCache.m[key] {
		if p.valid(v) {
			planCache.RUnlock()
			mPlanCacheHits.Inc()
			return p, nil
		}
	}
	planCache.RUnlock()
	mPlanCacheMisses.Inc()
	p, err := Compile(q, v)
	if err != nil {
		return nil, err
	}
	planCache.Lock()
	if planCache.n >= planCacheCap {
		clear(planCache.m)
		planCache.n = 0
	}
	planCache.m[key] = append(planCache.m[key], p)
	planCache.n++
	planCache.Unlock()
	return p, nil
}

package query

import (
	"fmt"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// This file implements delta re-evaluation for the incremental world
// maintenance in internal/core: when a world grows monotonically (the
// clique search pushes one more transaction and its fixpoint closure),
// the assignments of the new world that the old one lacked are exactly
// those using at least one delta tuple. EvalDelta enumerates each of
// them once, as an OR over delta positions: position d takes the
// assignments whose first delta tuple (in body order of the positive
// atoms) sits at atom d, so atoms before d are windowed below the
// delta floor, atom d to the delta, and atoms after d see everything.
// Each position runs its own delta-first join order, compiled to start
// at atom d — the delta is small, so the pass costs what the delta's
// matches cost, not a scan of the pre-delta world. A monotone query is
// hit on the new world iff one of these assignments satisfies it, or,
// for an aggregate, iff folding them into the old world's accumulator
// crosses the bound.

// Window modes for one plan step during a delta run. winFull is the
// zero value so plain Eval runs need no window setup at all.
const (
	winFull  uint8 = iota // probe the whole view
	winBelow              // probe base + extra tuples with position < floor
	winFrom               // probe only extra tuples with position >= floor
)

// DeltaView is the view contract EvalDelta needs: the plain View probes
// plus position-windowed variants that split each relation's overlay
// extras at a floor captured before the delta was applied.
// *relation.Overlay is the canonical implementation; its windows are
// documented in internal/relation/window.go.
type DeltaView interface {
	relation.View
	// ExtraCount returns the number of overlay-extra tuples currently in
	// the relation; capturing it before a mutation yields the floor the
	// windowed probes split at.
	ExtraCount(rel string) int
	ScanBelow(rel string, floor int, f func(value.Tuple) bool) bool
	ScanFrom(rel string, floor int, f func(value.Tuple) bool) bool
	LookupKeyBelow(rel string, cols []int, projKey []byte, floor int, f func(value.Tuple) bool) bool
	LookupKeyFrom(rel string, cols []int, projKey []byte, floor int, f func(value.Tuple) bool) bool
}

var _ DeltaView = (*relation.Overlay)(nil)

// EvalDelta reports whether the plan is satisfied on the view given
// that it was NOT satisfied on the same view as it stood at the floors:
// floors[i] is the ExtraCount of plan.RelNames()[i] captured before the
// delta tuples were added. It only ever enumerates assignments touching
// the delta, each exactly once and each from a delta-first join order,
// so its cost is proportional to the delta's matches, not the world's.
//
// For an aggregate plan acc carries the fold of the pre-delta view
// (EvalBase for the root, then one EvalDelta per growth step): EvalDelta
// opens a frame on acc, folds the new assignments into it, and reports
// whether the bound is now crossed. The caller closes the frame with
// acc.Pop when the view shrinks back to the floors. acc may be nil for
// plans without an aggregate; when given, it gets a frame regardless,
// so a walk can pop unconditionally.
//
// Soundness requires the caller to guarantee (a) the query is monotone
// (SupportsDelta), so satisfaction only switches on as the view grows,
// and (b) the pre-delta view was hit-free — otherwise the old
// assignment is simply not found and a false negative results. Callers
// that cannot guarantee (b) must fall back to Eval. A sum is monotone
// only over non-negative values, as the paper's amounts are.
func (p *Plan) EvalDelta(v DeltaView, sc *Scratch, floors []int, acc *Acc) (bool, error) {
	if !p.deltaOK {
		return false, fmt.Errorf("query: EvalDelta on a plan that is not monotone")
	}
	if len(floors) != len(p.relNames) {
		return false, fmt.Errorf("query: EvalDelta got %d floors for %d relations", len(floors), len(p.relNames))
	}
	agg := p.q.Agg != nil
	if agg && acc == nil {
		return false, fmt.Errorf("query: EvalDelta on an aggregate plan needs an accumulator")
	}
	if acc != nil {
		acc.push()
	}
	yield := sc.yieldHit
	if agg {
		yield = sc.yieldFold
	}
	sc.prepare(p, v, false, yield)
	sc.acc, sc.dv = acc, v
	if n := len(p.main.steps); cap(sc.winFloors) >= n {
		sc.winFloors = sc.winFloors[:n]
	} else {
		sc.winFloors = make([]int, n)
	}
	// A position whose relation gained no extras cannot host the first
	// delta tuple and is skipped outright.
	for d := 0; d < len(p.deltas) && !sc.found; d++ {
		o := &p.deltas[d]
		ri := o.relIdx[0]
		if v.ExtraCount(p.relNames[ri]) == floors[ri] {
			continue
		}
		for i, rj := range o.relIdx {
			sc.winFloors[i] = floors[rj]
		}
		sc.ord, sc.winModes = o, o.modes
		sc.run()
	}
	found := sc.found
	sc.finish()
	return found, nil
}

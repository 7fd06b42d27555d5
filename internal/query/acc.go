package query

import "blockchaindb/internal/value"

// Acc is an aggregate's running fold. Plain Eval uses one per scratch;
// an incremental walk keeps one along a stack of growing worlds:
// EvalBase folds the root world in full, each EvalDelta opens a frame
// and folds only the assignments the delta added, and Pop restores the
// value the frame saved when the world shrinks back. The zero Acc is
// ready for EvalBase. An Acc must not be shared between concurrent
// evaluations.
type Acc struct {
	head     *AggHead
	monotone bool // the head may stop at the first crossing
	accState      // the current value
	keys     map[string]struct{}
	added    []string // cntd keys added since the root, in order; frames truncate it
	frames   []accState
	proj     value.Tuple
}

// accState is the scalar part of a fold — everything a frame saves.
type accState struct {
	n        int64 // count, or cntd's number of distinct keys
	sumI     int64
	sumF     float64
	sawF     bool
	extreme  value.Value
	nonEmpty bool
	nAdded   int // len(Acc.added) when the frame opened
}

// reset starts an empty fold for the head (nil for a plan without an
// aggregate), dropping every frame; monotone is the query's
// IsMonotonic.
func (a *Acc) reset(h *AggHead, monotone bool) {
	a.head, a.monotone = h, monotone
	a.accState = accState{}
	clear(a.keys)
	a.added = a.added[:0]
	a.frames = a.frames[:0]
	if h == nil {
		return
	}
	if h.Func == AggCntd && a.keys == nil {
		a.keys = make(map[string]struct{})
	}
	if cap(a.proj) >= len(h.Vars) {
		a.proj = a.proj[:len(h.Vars)]
	} else {
		a.proj = make(value.Tuple, len(h.Vars))
	}
}

// push opens a frame: the value the next Pop restores.
func (a *Acc) push() {
	a.nAdded = len(a.added)
	a.frames = append(a.frames, a.accState)
}

// Pop closes the most recent frame EvalDelta opened, restoring the
// fold to its value before that delta; cntd forgets the keys the delta
// added. Popping with no open frame is a caller bug and panics.
func (a *Acc) Pop() {
	n := len(a.frames) - 1
	a.accState = a.frames[n]
	a.frames = a.frames[:n]
	for _, k := range a.added[a.nAdded:] {
		delete(a.keys, k)
	}
	a.added = a.added[:a.nAdded]
}

// add folds one assignment's aggregate projection, read from the
// slots, and reports whether a monotone head's bound is now crossed.
func (a *Acc) add(aggSlots []int, slots []value.Value) bool {
	proj := a.proj
	for i, s := range aggSlots {
		if s < 0 {
			proj[i] = value.Null
		} else {
			proj[i] = slots[s]
		}
	}
	switch a.head.Func {
	case AggCount:
		a.n++
	case AggCntd:
		k := proj.Key()
		if _, seen := a.keys[k]; !seen {
			a.keys[k] = struct{}{}
			if len(a.frames) > 0 {
				// Keys folded into the root never need undoing.
				a.added = append(a.added, k)
			}
			a.n++
		}
	case AggSum:
		v := proj[0]
		if v.Kind() == value.KindFloat || a.sawF {
			a.sawF = true
			a.sumF += v.AsFloat()
		} else if v.Kind() == value.KindInt {
			a.sumI += v.AsInt()
		} else {
			a.sawF = true
			a.sumF += v.AsFloat() // panics for non-numerics, as documented
		}
	case AggMax:
		if !a.nonEmpty || proj[0].Compare(a.extreme) > 0 {
			a.extreme = proj[0]
		}
	case AggMin:
		if !a.nonEmpty || proj[0].Compare(a.extreme) < 0 {
			a.extreme = proj[0]
		}
	}
	a.nonEmpty = true
	return a.monotone && a.holds()
}

// result returns the fold's current value; ok is false for the empty
// bag.
func (a *Acc) result() (v value.Value, ok bool) {
	if !a.nonEmpty {
		return value.Null, false
	}
	switch a.head.Func {
	case AggCount, AggCntd:
		return value.Int(a.n), true
	case AggSum:
		return sumValue(a.sumI, a.sumF, a.sawF), true
	default:
		return a.extreme, true
	}
}

// holds applies the head comparison to the current value; the empty
// bag is false under the paper's chosen semantics.
func (a *Acc) holds() bool {
	v, ok := a.result()
	return ok && a.head.Op.Eval(v.Compare(a.head.Bound))
}

func sumValue(sumI int64, sumF float64, sawF bool) value.Value {
	if sawF {
		return value.Float(sumF + float64(sumI))
	}
	return value.Int(sumI)
}

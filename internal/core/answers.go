package core

import (
	"context"
	"fmt"
	"sort"

	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// CertainAnswers computes the answers a non-Boolean query returns in
// EVERY possible world — the classical certain-answer semantics the
// paper's Section 5 discusses. For positive conjunctive queries the
// result is exactly q(R), since R is a possible world contained in
// every other and positive queries are monotone (the paper's remark
// that "the set of certain answers is precisely the result of
// evaluating q over R"). For queries with negation the answers are the
// intersection over all possible worlds, computed by exhaustive
// enumeration (exponential in |T|). A cancelled or expired ctx stops
// the enumeration with an error wrapping ErrUndecided.
func CertainAnswers(ctx context.Context, d *possible.DB, q *query.Query) ([]value.Tuple, error) {
	if q.IsBoolean() || q.IsAggregate() {
		return nil, fmt.Errorf("core: CertainAnswers requires head variables")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, undecided(err)
	}
	if q.IsPositive() {
		return sortTuples(query.EvalTuples(q, d.State))
	}
	var intersection map[string]value.Tuple
	var evalErr error
	err := d.EnumerateWorldsCtx(ctx, func(_ []int, world *relation.Overlay) bool {
		tuples, err := query.EvalTuples(q, world)
		if err != nil {
			evalErr = err
			return false
		}
		here := make(map[string]value.Tuple, len(tuples))
		for _, t := range tuples {
			here[t.Key()] = t
		}
		if intersection == nil {
			intersection = here
			return len(intersection) > 0 // empty intersection stays empty
		}
		for k := range intersection {
			if _, ok := here[k]; !ok {
				delete(intersection, k)
			}
		}
		return len(intersection) > 0
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		return nil, undecided(err)
	}
	out := make([]value.Tuple, 0, len(intersection))
	for _, t := range intersection {
		out = append(out, t)
	}
	return sortTuples(out, nil)
}

// PossibleAnswers computes the answers the query returns in SOME
// possible world. For positive conjunctive queries monotonicity lets
// the search visit only maximal possible worlds (the union over maximal
// cliques of the fd-transaction graph); queries with negation fall back
// to exhaustive world enumeration. ctx is polled once per maximal
// clique or world; cancellation returns an error wrapping ErrUndecided.
func PossibleAnswers(ctx context.Context, d *possible.DB, q *query.Query) ([]value.Tuple, error) {
	if q.IsBoolean() || q.IsAggregate() {
		return nil, fmt.Errorf("core: PossibleAnswers requires head variables")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, undecided(err)
	}
	union := make(map[string]value.Tuple)
	collect := func(world relation.View) error {
		tuples, err := query.EvalTuples(q, world)
		if err != nil {
			return err
		}
		for _, t := range tuples {
			union[t.Key()] = t
		}
		return nil
	}
	if q.IsPositive() {
		// R itself plus every maximal world.
		if err := collect(d.State); err != nil {
			return nil, err
		}
		view := prepare(d)
		cg := fdGraphFromConflicts(view.live(), view)
		var evalErr error
		cg.maximalCliques(func(subset []int) bool {
			if err := ctx.Err(); err != nil {
				evalErr = undecided(err)
				return false
			}
			world, _ := d.GetMaximal(subset)
			if err := collect(world); err != nil {
				evalErr = err
				return false
			}
			return true
		})
		if evalErr != nil {
			return nil, evalErr
		}
	} else {
		var evalErr error
		err := d.EnumerateWorldsCtx(ctx, func(_ []int, world *relation.Overlay) bool {
			if err := collect(world); err != nil {
				evalErr = err
				return false
			}
			return true
		})
		if evalErr != nil {
			return nil, evalErr
		}
		if err != nil {
			return nil, undecided(err)
		}
	}
	out := make([]value.Tuple, 0, len(union))
	for _, t := range union {
		out = append(out, t)
	}
	return sortTuples(out, nil)
}

// sortTuples orders tuples deterministically; the error parameter lets
// callers chain it onto EvalTuples.
func sortTuples(tuples []value.Tuple, err error) ([]value.Tuple, error) {
	if err != nil {
		return nil, err
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Compare(tuples[j]) < 0 })
	return tuples, nil
}

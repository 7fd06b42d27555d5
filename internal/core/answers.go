package core

import (
	"context"
	"fmt"
	"sort"

	"blockchaindb/internal/obs"
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
// possible world. Every world lies inside R ∪ ∪T, so the candidates are
// the answers of q's positive part (q without its negated atoms) over
// that union. A candidate t is a possible answer iff the Boolean query
// q_t = q.Bind(t) holds in some world, that is iff D ⊭ ¬q_t: each
// candidate is one Check, routed as any denial constraint is. Unless
// ctx already names a principal query, the candidate checks are billed
// to q's text. A cancelled or expired ctx stops the loop with an error
// wrapping ErrUndecided.
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
	if p, _ := obs.PrincipalFrom(ctx); p.Query == "" {
		ctx = obs.WithPrincipal(ctx, p.Tenant, q.String())
	}
	seen := make(map[string]bool)
	var candidates []value.Tuple
	err := query.Assignments(q, prepare(d).union(), false, func(b *query.Binding) bool {
		t := make(value.Tuple, len(q.HeadVars))
		for i, v := range q.HeadVars {
			t[i], _ = b.Value(v)
		}
		if key := t.Key(); !seen[key] {
			seen[key] = true
			candidates = append(candidates, t)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]value.Tuple, 0, len(candidates))
	for _, t := range candidates {
		res, err := Check(ctx, d, q.Bind(t), Options{})
		if err != nil {
			return nil, err
		}
		if !res.Satisfied {
			out = append(out, t)
		}
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

package constraint

import (
	"bytes"
	"fmt"
	"sync"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// Check verifies that the view satisfies every constraint in the set.
// It returns nil when satisfied, or the first *Violation found.
func (c *Set) Check(v relation.View) error {
	for i, fd := range c.FDs {
		if err := c.checkFD(v, i, fd); err != nil {
			return err
		}
	}
	for i, ind := range c.INDs {
		if err := c.checkIND(v, i, ind); err != nil {
			return err
		}
	}
	return nil
}

func (c *Set) checkFD(v relation.View, i int, fd *FD) error {
	lhs, rhs := c.fdCols[i].lhs, c.fdCols[i].rhs
	seen := make(map[string]value.Tuple, v.Count(fd.Rel))
	var violation *Violation
	v.Scan(fd.Rel, func(t value.Tuple) bool {
		lk := t.ProjectKey(lhs)
		if prev, ok := seen[lk]; ok {
			if prev.ProjectKey(rhs) != t.ProjectKey(rhs) {
				violation = &Violation{Constraint: fd, Rel: fd.Rel, Tuple: t, Other: prev}
				return false
			}
			return true
		}
		seen[lk] = t
		return true
	})
	if violation != nil {
		return violation
	}
	return nil
}

func (c *Set) checkIND(v relation.View, i int, ind *IND) error {
	cols, refCols := c.indCols[i].cols, c.indCols[i].refCols
	var violation *Violation
	v.Scan(ind.Rel, func(t value.Tuple) bool {
		if !hasReferenced(v, ind.RefRel, refCols, t.ProjectKey(cols)) {
			violation = &Violation{Constraint: ind, Rel: ind.Rel, Tuple: t}
			return false
		}
		return true
	})
	if violation != nil {
		return violation
	}
	return nil
}

// hasReferenced reports whether the view holds a tuple of rel whose
// projection on cols matches the key.
func hasReferenced(v relation.View, rel string, cols []int, key string) bool {
	found := false
	v.Lookup(rel, cols, key, func(value.Tuple) bool {
		found = true
		return false
	})
	return found
}

// CanAppend reports whether world ∪ tx satisfies the constraint set,
// assuming the world itself already does. This is the incremental form
// used by the can-append relation: only the new tuples are examined —
// an FD can newly break only on a pair involving a new tuple, and an
// IND can newly break only for a new left-hand-side tuple (adding
// tuples never invalidates existing references). It runs both halves
// of the test, the FD half (fdFault) and the IND half (indFault), and
// allocates nothing whatever the outcome.
func (c *Set) CanAppend(world relation.View, tx *relation.Transaction) bool {
	return c.appendFault(world, tx, true).cons == nil
}

// CanAppendIND is the IND half of CanAppend alone: whether every
// referencing tuple of tx finds its referenced tuple in world ∪ tx. It
// decides appendability only where the FD half is known to pass — for
// a world and a transaction that are fd-compatible, as inside a clique
// of the fd-transaction graph. Like CanAppend, it allocates nothing.
func (c *Set) CanAppendIND(world relation.View, tx *relation.Transaction) bool {
	return c.appendFault(world, tx, false).cons == nil
}

// AppendViolation is CanAppend returning the first violation found (nil
// when the transaction can be appended): an FD violation if there is
// one, else an IND violation.
func (c *Set) AppendViolation(world relation.View, tx *relation.Transaction) error {
	return c.appendFault(world, tx, true).err()
}

// appendScratch holds the reusable state of one append test. The
// getMaximal fixpoint runs the test once per (world, transaction) step
// — thousands of times per DCSat check, concurrently from parallel
// workers — so it lives in a pool rather than on the (shared) Set. The
// probe callbacks are bound to the scratch once, when the pool makes
// it, and read their inputs and write their results through it, so a
// probe allocates no closure and moves no variable to the heap.
type appendScratch struct {
	lbuf, rbuf, ebuf, kbuf []byte

	rhs   []int       // fdProbe: the FD's right-hand columns, whose projection of the new tuple is in rbuf
	clash value.Tuple // fdProbe: the first existing tuple with another right-hand side
	hit   bool        // anyProbe: some tuple matched

	fdProbe, anyProbe func(value.Tuple) bool
}

var appendScratchPool = sync.Pool{New: func() any {
	sc := new(appendScratch)
	sc.fdProbe = sc.probeRHS
	sc.anyProbe = sc.probeAny
	return sc
}}

func (sc *appendScratch) probeRHS(existing value.Tuple) bool {
	sc.ebuf = existing.AppendProjectKey(sc.ebuf[:0], sc.rhs)
	if !bytes.Equal(sc.ebuf, sc.rbuf) {
		sc.clash = existing
		return false
	}
	return true
}

func (sc *appendScratch) probeAny(value.Tuple) bool {
	sc.hit = true
	return false
}

// fault is a violation found by the append test, held by value so that
// the boolean forms allocate nothing when they refuse an append. The
// zero fault (nil cons) means none.
type fault struct {
	cons         fmt.Stringer
	rel          string
	tuple, other value.Tuple
}

func (f fault) err() error {
	if f.cons == nil {
		return nil
	}
	return &Violation{Constraint: f.cons, Rel: f.rel, Tuple: f.tuple, Other: f.other}
}

// appendFault runs the append test of tx against world — the FD half
// when fds is set, then the IND half — and returns the first violation
// found.
func (c *Set) appendFault(world relation.View, tx *relation.Transaction, fds bool) fault {
	sc := appendScratchPool.Get().(*appendScratch)
	defer appendScratchPool.Put(sc)
	if fds {
		if f := c.fdFault(sc, world, tx); f.cons != nil {
			return f
		}
	}
	return c.indFault(sc, world, tx)
}

// fdFault is the FD half of the append test: the first pair of tuples
// of world ∪ tx, at least one of them new, that breaks a functional
// dependency.
func (c *Set) fdFault(sc *appendScratch, world relation.View, tx *relation.Transaction) fault {
	for i, fd := range c.FDs {
		lhs, rhs := c.fdCols[i].lhs, c.fdCols[i].rhs
		news := tx.Tuples(fd.Rel)
		if len(news) == 0 {
			continue
		}
		// Within-transaction pairs: transactions hold a handful of
		// tuples, so pairwise comparison through reused buffers beats a
		// per-call map.
		for a := 1; a < len(news); a++ {
			sc.lbuf = news[a].AppendProjectKey(sc.lbuf[:0], lhs)
			sc.rbuf = news[a].AppendProjectKey(sc.rbuf[:0], rhs)
			for b := 0; b < a; b++ {
				sc.ebuf = news[b].AppendProjectKey(sc.ebuf[:0], lhs)
				if !bytes.Equal(sc.ebuf, sc.lbuf) {
					continue
				}
				sc.ebuf = news[b].AppendProjectKey(sc.ebuf[:0], rhs)
				if !bytes.Equal(sc.ebuf, sc.rbuf) {
					return fault{fd, fd.Rel, news[a], news[b]}
				}
			}
		}
		// New tuple against the existing world.
		sc.rhs = rhs
		for _, t := range news {
			sc.lbuf = t.AppendProjectKey(sc.lbuf[:0], lhs)
			sc.rbuf = t.AppendProjectKey(sc.rbuf[:0], rhs)
			world.LookupKey(fd.Rel, lhs, sc.lbuf, sc.fdProbe)
			if clash := sc.clash; clash != nil {
				sc.clash = nil // the pooled scratch keeps no tuple alive
				return fault{fd, fd.Rel, t, clash}
			}
		}
	}
	return fault{}
}

// indFault is the IND half of the append test: the first new tuple
// whose referenced tuple is in neither world nor tx.
func (c *Set) indFault(sc *appendScratch, world relation.View, tx *relation.Transaction) fault {
	for i, ind := range c.INDs {
		cols, refCols := c.indCols[i].cols, c.indCols[i].refCols
		for _, t := range tx.Tuples(ind.Rel) {
			sc.kbuf = t.AppendProjectKey(sc.kbuf[:0], cols)
			sc.hit = false
			world.LookupKey(ind.RefRel, refCols, sc.kbuf, sc.anyProbe)
			if sc.hit {
				continue
			}
			// The reference may be provided by the transaction itself.
			if txProvidesKey(tx, ind.RefRel, refCols, sc.kbuf, &sc.ebuf) {
				continue
			}
			return fault{ind, ind.Rel, t, nil}
		}
	}
	return fault{}
}

func txProvidesKey(tx *relation.Transaction, rel string, cols []int, key []byte, buf *[]byte) bool {
	for _, t := range tx.Tuples(rel) {
		*buf = t.AppendProjectKey((*buf)[:0], cols)
		if bytes.Equal(*buf, key) {
			return true
		}
	}
	return false
}

// FDCompatible reports whether the union of the two transactions
// satisfies all functional dependencies of the set, ignoring inclusion
// dependencies. This is the edge predicate of the paper's
// fd-transaction graph G^fd_T.
func (c *Set) FDCompatible(a, b *relation.Transaction) bool {
	for i, fd := range c.FDs {
		lhs, rhs := c.fdCols[i].lhs, c.fdCols[i].rhs
		ta, tb := a.Tuples(fd.Rel), b.Tuples(fd.Rel)
		if len(ta) == 0 && len(tb) == 0 {
			continue
		}
		seen := make(map[string]string, len(ta)+len(tb))
		conflict := false
		add := func(ts []value.Tuple) {
			for _, t := range ts {
				lk := t.ProjectKey(lhs)
				rk := t.ProjectKey(rhs)
				if prev, ok := seen[lk]; ok {
					if prev != rk {
						conflict = true
						return
					}
					continue
				}
				seen[lk] = rk
			}
		}
		add(ta)
		if !conflict {
			add(tb)
		}
		if conflict {
			return false
		}
	}
	return true
}

// FDSelfConsistent reports whether the transaction alone satisfies the
// functional dependencies (a transaction that does not can never appear
// in any possible world).
func (c *Set) FDSelfConsistent(t *relation.Transaction) bool {
	return c.FDCompatible(t, relation.NewTransaction(""))
}

// FDKeys returns, for FD i, the (lhsKey, rhsKey) projection pairs of
// the transaction's tuples on that dependency's relation. Used to build
// the fd-transaction graph by hashing rather than by pairwise checks.
func (c *Set) FDKeys(i int, tx *relation.Transaction) (lhsKeys, rhsKeys []string) {
	fd := c.FDs[i]
	lhs, rhs := c.fdCols[i].lhs, c.fdCols[i].rhs
	for _, t := range tx.Tuples(fd.Rel) {
		lhsKeys = append(lhsKeys, t.ProjectKey(lhs))
		rhsKeys = append(rhsKeys, t.ProjectKey(rhs))
	}
	return lhsKeys, rhsKeys
}

// INDKeys returns, for IND i, the projection keys of the transaction's
// tuples on the dependency's two sides: lhsKeys projects the tuples of
// INDs[i].Rel on Cols (the referencing side), refKeys projects the
// tuples of INDs[i].RefRel on RefCols (the referenced side). Both
// lists live in the same key space, so two transactions interact under
// the Θ_I equality constraints of this IND exactly when a lhsKey of
// one equals a refKey of the other. Used to maintain the Monitor's
// Θ-bucket index by hashing rather than by pairwise checks.
func (c *Set) INDKeys(i int, tx *relation.Transaction) (lhsKeys, refKeys []string) {
	ind := c.INDs[i]
	cols, refCols := c.indCols[i].cols, c.indCols[i].refCols
	for _, t := range tx.Tuples(ind.Rel) {
		lhsKeys = append(lhsKeys, t.ProjectKey(cols))
	}
	for _, t := range tx.Tuples(ind.RefRel) {
		refKeys = append(refKeys, t.ProjectKey(refCols))
	}
	return lhsKeys, refKeys
}

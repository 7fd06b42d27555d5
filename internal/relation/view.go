package relation

import "blockchaindb/internal/value"

// View is a read-only window over a set of relations. Both a plain
// State and an Overlay (state ∪ pending transactions) implement it;
// constraint checking and query evaluation operate on Views so they can
// examine candidate possible worlds without materializing them.
type View interface {
	// Schema returns the schema of the named relation, or nil.
	Schema(rel string) *Schema
	// Scan iterates every tuple of the relation; f returning false
	// stops early. It reports whether iteration ran to completion.
	Scan(rel string, f func(value.Tuple) bool) bool
	// Lookup iterates the tuples whose projection onto cols equals the
	// projection key (value.Tuple.ProjectKey encoding).
	Lookup(rel string, cols []int, projKey string, f func(value.Tuple) bool) bool
	// LookupKey is Lookup with the projection key as a byte buffer
	// (value.Tuple.AppendProjectKey encoding); implementations probe
	// without allocating, so hot loops can reuse one buffer across
	// probes.
	LookupKey(rel string, cols []int, projKey []byte, f func(value.Tuple) bool) bool
	// Contains reports whether the exact tuple is present.
	Contains(rel string, t value.Tuple) bool
	// ContainsKey reports whether a tuple with the given full-tuple key
	// encoding (value.Tuple.AppendKey of a schema-normalized tuple) is
	// present, without allocating.
	ContainsKey(rel string, key []byte) bool
	// Count returns the number of tuples in the relation.
	Count(rel string) int
	// Names returns all relation names.
	Names() []string
}

// Scan implements View for State.
func (s *State) Scan(rel string, f func(value.Tuple) bool) bool {
	r := s.rels[rel]
	if r == nil {
		return true
	}
	return r.Scan(f)
}

// Lookup implements View for State.
func (s *State) Lookup(rel string, cols []int, projKey string, f func(value.Tuple) bool) bool {
	r := s.rels[rel]
	if r == nil {
		return true
	}
	return r.LookupTuples(cols, projKey, f)
}

// LookupKey implements View for State.
func (s *State) LookupKey(rel string, cols []int, projKey []byte, f func(value.Tuple) bool) bool {
	r := s.rels[rel]
	if r == nil {
		return true
	}
	return r.LookupTuplesKey(cols, projKey, f)
}

// Contains implements View for State.
func (s *State) Contains(rel string, t value.Tuple) bool {
	r := s.rels[rel]
	return r != nil && r.Contains(t)
}

// ContainsKey implements View for State.
func (s *State) ContainsKey(rel string, key []byte) bool {
	r := s.rels[rel]
	return r != nil && r.ContainsKey(key)
}

// Count implements View for State.
func (s *State) Count(rel string) int {
	r := s.rels[rel]
	if r == nil {
		return 0
	}
	return r.Len()
}

// Overlay is the view "base ∪ transactions". Tuples of the overlaid
// transactions that already occur in the base are dropped at
// construction, so the overlay preserves set semantics: Scan visits
// each distinct tuple exactly once. Overlays are cheap: the base is
// shared, only the (small) pending tuples are copied into a fresh
// State whose indexes build lazily on first lookup.
type Overlay struct {
	base   *State
	extra  *State
	keyBuf []byte // reusable key-encoding buffer for Add
}

// NewOverlay builds the view base ∪ txs.
func NewOverlay(base *State, txs ...*Transaction) *Overlay {
	extra := NewState()
	for _, name := range base.Names() {
		extra.MustAddSchema(base.Schema(name))
	}
	o := &Overlay{base: base, extra: extra}
	for _, tx := range txs {
		o.Add(tx)
	}
	return o
}

// Add extends the overlay with another transaction's tuples (those not
// already in the base or the overlay). Indexes on the extra state are
// invalidated implicitly because State indexes are per-Relation and
// maintained on insert. Tuples are normalized before the base
// membership probe, so unnormalized duplicates of base tuples never
// leak into the overlay; the probe itself builds the key into a reused
// buffer, so re-adding pending transactions (already normalized by
// possible.New) allocates nothing.
func (o *Overlay) Add(tx *Transaction) {
	for _, rel := range tx.Relations() {
		r := o.extra.rels[rel]
		for _, tup := range tx.Tuples(rel) {
			if r == nil {
				o.extra.MustInsert(rel, tup) // unknown relation: surface the standard panic
				continue
			}
			nt, err := r.schema.Normalize(tup)
			if err != nil {
				panic(err)
			}
			o.keyBuf = nt.AppendKey(o.keyBuf[:0])
			if o.base.ContainsKey(rel, o.keyBuf) {
				continue
			}
			r.insertNormalized(nt, o.keyBuf)
		}
	}
}

// Base returns the underlying base state.
func (o *Overlay) Base() *State { return o.base }

// ExtraSize returns the number of overlay-only tuples.
func (o *Overlay) ExtraSize() int { return o.extra.Size() }

// Schema implements View.
func (o *Overlay) Schema(rel string) *Schema { return o.base.Schema(rel) }

// Names implements View.
func (o *Overlay) Names() []string { return o.base.Names() }

// Scan implements View: base tuples first, then overlay-only tuples.
func (o *Overlay) Scan(rel string, f func(value.Tuple) bool) bool {
	if !o.base.Scan(rel, f) {
		return false
	}
	return o.extra.Scan(rel, f)
}

// Lookup implements View.
func (o *Overlay) Lookup(rel string, cols []int, projKey string, f func(value.Tuple) bool) bool {
	if !o.base.Lookup(rel, cols, projKey, f) {
		return false
	}
	return o.extra.Lookup(rel, cols, projKey, f)
}

// LookupKey implements View.
func (o *Overlay) LookupKey(rel string, cols []int, projKey []byte, f func(value.Tuple) bool) bool {
	if !o.base.LookupKey(rel, cols, projKey, f) {
		return false
	}
	return o.extra.LookupKey(rel, cols, projKey, f)
}

// Contains implements View.
func (o *Overlay) Contains(rel string, t value.Tuple) bool {
	return o.base.Contains(rel, t) || o.extra.Contains(rel, t)
}

// ContainsKey implements View.
func (o *Overlay) ContainsKey(rel string, key []byte) bool {
	return o.base.ContainsKey(rel, key) || o.extra.ContainsKey(rel, key)
}

// Count implements View.
func (o *Overlay) Count(rel string) int {
	return o.base.Count(rel) + o.extra.Count(rel)
}

// Reset empties the overlay's extra tuples in place, retaining the
// allocated relations, key maps and indexes, so one Overlay can be
// reused across many candidate worlds over the same base. Callers must
// exclude concurrent readers.
func (o *Overlay) Reset() { o.extra.Reset() }

// Materialize copies the overlay into a standalone State.
func (o *Overlay) Materialize() *State {
	s := o.base.Clone()
	for _, name := range o.extra.Names() {
		o.extra.Scan(name, func(t value.Tuple) bool {
			s.MustInsert(name, t)
			return true
		})
	}
	return s
}

var (
	_ View = (*State)(nil)
	_ View = (*Overlay)(nil)
)

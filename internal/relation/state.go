package relation

import (
	"fmt"
	"sort"

	"blockchaindb/internal/value"
)

// State is a named collection of relations — the "set of relations R"
// of the paper, used both for the current (committed) state and for any
// other materialized set of relations.
//
// Every change to a state goes through its methods (Insert,
// InsertTransaction, MustInsert, Reset, AddSchema), which bump Version: structures
// derived from the state, such as a database's prepared view, compare
// versions to tell whether they are still current. Inserting through a
// *Relation obtained from Relation bypasses the counter.
type State struct {
	rels    map[string]*Relation
	names   []string // deterministic iteration order
	version uint64
}

// NewState returns an empty state.
func NewState() *State {
	return &State{rels: make(map[string]*Relation)}
}

// AddSchema registers an empty relation for the schema. Registering a
// name twice is an error.
func (s *State) AddSchema(sc *Schema) error {
	if _, dup := s.rels[sc.Name]; dup {
		return fmt.Errorf("relation: duplicate schema %q", sc.Name)
	}
	s.rels[sc.Name] = NewRelation(sc)
	s.names = append(s.names, sc.Name)
	s.version++
	return nil
}

// MustAddSchema is AddSchema but panics on duplicates.
func (s *State) MustAddSchema(sc *Schema) {
	if err := s.AddSchema(sc); err != nil {
		panic(err)
	}
}

// Relation returns the named relation, or nil if unknown.
func (s *State) Relation(name string) *Relation { return s.rels[name] }

// Schema returns the named relation's schema, or nil.
func (s *State) Schema(name string) *Schema {
	if r := s.rels[name]; r != nil {
		return r.schema
	}
	return nil
}

// Names returns the relation names in registration order.
func (s *State) Names() []string { return s.names }

// Insert adds a tuple to the named relation.
func (s *State) Insert(rel string, t value.Tuple) (bool, error) {
	r := s.rels[rel]
	if r == nil {
		return false, fmt.Errorf("relation: unknown relation %q", rel)
	}
	s.version++
	return r.Insert(t)
}

// Version counts the changes made through the state's methods. It only
// grows; equal versions of one state mean equal contents.
func (s *State) Version() uint64 { return s.version }

// MustInsert is Insert but panics on error.
func (s *State) MustInsert(rel string, t value.Tuple) bool {
	ok, err := s.Insert(rel, t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Size returns the total number of tuples across relations.
func (s *State) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// Reset empties every relation in place, keeping schemas and the
// relations' allocated bookkeeping (see Relation.Clear), so a pooled
// state refills cheaply. Callers must exclude concurrent readers.
func (s *State) Reset() {
	s.version++
	for _, r := range s.rels {
		r.Clear()
	}
}

// Clone deep-copies the state (tuples shared, bookkeeping fresh).
func (s *State) Clone() *State {
	c := NewState()
	c.names = append([]string(nil), s.names...)
	for name, r := range s.rels {
		c.rels[name] = r.Clone()
	}
	return c
}

// InsertTransaction adds every tuple of the transaction (duplicates
// silently skipped, per set semantics).
func (s *State) InsertTransaction(t *Transaction) error {
	for _, rel := range t.Relations() {
		for _, tup := range t.Tuples(rel) {
			if _, err := s.Insert(rel, tup); err != nil {
				return err
			}
		}
	}
	return nil
}

// NormalizeTransaction returns a copy of the transaction whose tuples
// are validated against the state's schemas and normalized to the
// declared column kinds, so projections of transaction tuples compare
// consistently with stored tuples. The transaction name is preserved.
func (s *State) NormalizeTransaction(tx *Transaction) (*Transaction, error) {
	out := NewTransaction(tx.Name)
	for _, rel := range tx.Relations() {
		sc := s.Schema(rel)
		if sc == nil {
			return nil, fmt.Errorf("relation: transaction %s touches unknown relation %q", tx, rel)
		}
		for _, tup := range tx.Tuples(rel) {
			nt, err := sc.Normalize(tup)
			if err != nil {
				return nil, fmt.Errorf("relation: transaction %s: %w", tx, err)
			}
			out.Add(rel, nt)
		}
	}
	return out, nil
}

// Equal reports whether both states hold exactly the same tuples in the
// same relations (schemas compared by name).
func (s *State) Equal(o *State) bool {
	if len(s.rels) != len(o.rels) {
		return false
	}
	for name, r := range s.rels {
		or := o.rels[name]
		if or == nil || or.Len() != r.Len() {
			return false
		}
		same := r.Scan(func(t value.Tuple) bool { return or.Contains(t) })
		if !same {
			return false
		}
	}
	return true
}

// Fingerprint returns a canonical string identifying the state's
// contents, independent of insertion order. Intended for tests and
// deduplication of possible worlds.
func (s *State) Fingerprint() string {
	var keys []string
	for name, r := range s.rels {
		r.Scan(func(t value.Tuple) bool {
			keys = append(keys, name+"\x00"+t.Key())
			return true
		})
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "\x01"
	}
	return out
}

// Transaction is an insert transaction: a named set of ground tuples
// for (some of) the relations of a state. Transactions are immutable
// once built via the builder methods.
type Transaction struct {
	Name   string
	tuples map[string][]value.Tuple
	order  []string // relation names in first-touch order
	size   int
}

// NewTransaction creates an empty transaction with the given name.
func NewTransaction(name string) *Transaction {
	return &Transaction{Name: name, tuples: make(map[string][]value.Tuple)}
}

// Add appends a tuple for the relation. Duplicate tuples within the
// transaction are kept out (set semantics).
func (t *Transaction) Add(rel string, tup value.Tuple) *Transaction {
	for _, existing := range t.tuples[rel] {
		if existing.Equal(tup) {
			return t
		}
	}
	if _, seen := t.tuples[rel]; !seen {
		t.order = append(t.order, rel)
	}
	t.tuples[rel] = append(t.tuples[rel], tup)
	t.size++
	return t
}

// Relations returns the relation names touched, in first-touch order.
func (t *Transaction) Relations() []string { return t.order }

// Tuples returns the tuples for a relation (nil if untouched). The
// returned slice must not be modified.
func (t *Transaction) Tuples(rel string) []value.Tuple { return t.tuples[rel] }

// Size returns the total number of tuples in the transaction.
func (t *Transaction) Size() int { return t.size }

// SubsetOf reports whether every tuple of the transaction is already
// present in the state.
func (t *Transaction) SubsetOf(s *State) bool {
	for _, rel := range t.order {
		r := s.Relation(rel)
		if r == nil {
			return false
		}
		for _, tup := range t.tuples[rel] {
			if !r.Contains(tup) {
				return false
			}
		}
	}
	return true
}

// String returns the transaction's name (or a placeholder).
func (t *Transaction) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("tx[%d tuples]", t.size)
}

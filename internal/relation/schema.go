// Package relation implements the in-memory relational storage layer
// that a blockchain database sits on: schemas, set-semantics relations
// with hash indexes, multi-relation states, insert transactions, and
// overlay views that expose "state ∪ pending transactions" without
// copying the state.
//
// The paper stores committed tuples in Postgres and marks candidate
// possible worlds by toggling a Boolean "current" column. This package
// replaces that mechanism with overlay views: a possible world is the
// base state plus a small overlay holding only the candidate pending
// transactions, which is cheaper to construct per world and needs no
// mutation of the base.
package relation

import (
	"fmt"
	"strings"

	"blockchaindb/internal/value"
)

// Attribute is one named, typed column of a relation schema. A Kind of
// value.KindNull means the column accepts values of any kind.
type Attribute struct {
	Name string
	Kind value.Kind
}

// Schema describes a relation: its name and ordered attributes.
type Schema struct {
	Name  string
	Attrs []Attribute
}

// NewSchema builds a schema from "name:kind" column specs, where kind is
// one of int, float, string, bool, or any. It panics on a malformed
// spec; schemas are programmer-supplied, not user data.
func NewSchema(name string, cols ...string) *Schema {
	s := &Schema{Name: name}
	for _, c := range cols {
		parts := strings.SplitN(c, ":", 2)
		attr := Attribute{Name: parts[0], Kind: value.KindNull}
		if len(parts) == 2 {
			switch parts[1] {
			case "int":
				attr.Kind = value.KindInt
			case "float":
				attr.Kind = value.KindFloat
			case "string":
				attr.Kind = value.KindString
			case "bool":
				attr.Kind = value.KindBool
			case "any":
				attr.Kind = value.KindNull
			default:
				panic("relation: unknown column kind " + parts[1])
			}
		}
		s.Attrs = append(s.Attrs, attr)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Col returns the index of the named attribute, or ok=false.
func (s *Schema) Col(name string) (int, bool) {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i, true
		}
	}
	return 0, false
}

// MustCol is Col but panics when the attribute does not exist.
func (s *Schema) MustCol(name string) int {
	i, ok := s.Col(name)
	if !ok {
		panic(fmt.Sprintf("relation: %s has no attribute %q", s.Name, name))
	}
	return i
}

// Cols resolves several attribute names to their indexes.
func (s *Schema) Cols(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustCol(n)
	}
	return out
}

// AllCols returns [0..arity).
func (s *Schema) AllCols() []int {
	out := make([]int, s.Arity())
	for i := range out {
		out[i] = i
	}
	return out
}

// Check validates that the tuple matches the schema's arity and column
// kinds (numeric columns accept both int and float).
func (s *Schema) Check(t value.Tuple) error {
	if len(t) != s.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, want %d", s.Name, len(t), s.Arity())
	}
	for i, a := range s.Attrs {
		if a.Kind == value.KindNull || t[i].IsNull() {
			continue
		}
		if t[i].Kind() == a.Kind {
			continue
		}
		if t[i].IsNumeric() && (a.Kind == value.KindInt || a.Kind == value.KindFloat) {
			continue
		}
		return fmt.Errorf("relation %s: column %s has kind %v, want %v",
			s.Name, a.Name, t[i].Kind(), a.Kind)
	}
	return nil
}

// Normalize validates the tuple against the schema and coerces numeric
// values to the declared column kinds (int into a float column becomes
// a float, and vice versa when integral), so that identical logical
// values always share one stored representation. It returns the
// normalized tuple — the input when no coercion was needed.
func (s *Schema) Normalize(t value.Tuple) (value.Tuple, error) {
	if err := s.Check(t); err != nil {
		return nil, err
	}
	out := t
	copied := false
	for i, a := range s.Attrs {
		nv, ok := value.Normalize(t[i], a.Kind)
		if !ok {
			return nil, fmt.Errorf("relation %s: column %s cannot hold %v", s.Name, a.Name, t[i])
		}
		if nv != t[i] {
			if !copied {
				out = t.Clone()
				copied = true
			}
			out[i] = nv
		}
	}
	return out, nil
}

// NormalizeValue coerces a single value to the kind of column col.
func (s *Schema) NormalizeValue(v value.Value, col int) value.Value {
	nv, ok := value.Normalize(v, s.Attrs[col].Kind)
	if !ok {
		return v
	}
	return nv
}

// String renders the schema as "Name(col:kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		if a.Kind != value.KindNull {
			b.WriteByte(':')
			b.WriteString(a.Kind.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

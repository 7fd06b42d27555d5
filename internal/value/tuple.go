package value

import "strings"

// Tuple is an ordered sequence of values — one row of a relation.
// Tuples are treated as immutable once constructed; code that needs a
// modified copy should use Clone.
type Tuple []Value

// NewTuple builds a tuple from the given values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key returns a string that uniquely identifies the tuple's contents.
// It is suitable as a map key: two tuples have equal keys iff they are
// element-wise == (see Value.AppendKey).
func (t Tuple) Key() string {
	buf := make([]byte, 0, 16*len(t))
	return string(t.AppendKey(buf))
}

// AppendKey appends the tuple's Key encoding to dst and returns the
// extended slice. Hot paths reuse one buffer across probes and look up
// maps with the non-allocating map[string(buf)] form; Key() is the
// allocating convenience wrapper.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendKey(dst)
	}
	return dst
}

// Project returns the subtuple at the given column indexes, in order.
// It panics if an index is out of range.
func (t Tuple) Project(cols []int) Tuple {
	p := make(Tuple, len(cols))
	for i, c := range cols {
		p[i] = t[c]
	}
	return p
}

// ProjectKey returns Key() of the projection without allocating the
// intermediate tuple.
func (t Tuple) ProjectKey(cols []int) string {
	buf := make([]byte, 0, 16*len(cols))
	return string(t.AppendProjectKey(buf, cols))
}

// AppendProjectKey appends the projection's Key encoding to dst and
// returns the extended slice — ProjectKey without the string
// allocation, for per-probe index keys built into a reusable buffer.
func (t Tuple) AppendProjectKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = t[c].appendKey(dst)
	}
	return dst
}

// HasKey reports whether key is exactly the tuple's Key encoding,
// comparing in place: nothing is encoded or allocated.
func (t Tuple) HasKey(key []byte) bool {
	for _, v := range t {
		var ok bool
		if key, ok = v.trimKey(key); !ok {
			return false
		}
	}
	return len(key) == 0
}

// HasProjectKey reports whether key is exactly the Key encoding of the
// projection on cols — HasKey for ProjectKey.
func (t Tuple) HasProjectKey(cols []int, key []byte) bool {
	for _, c := range cols {
		var ok bool
		if key, ok = t[c].trimKey(key); !ok {
			return false
		}
	}
	return len(key) == 0
}

// Equal reports element-wise equality under the values' total order.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; shorter tuples sort first on
// ties. It gives a total order used for deterministic iteration.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return cmpInt64(int64(len(t)), int64(len(o)))
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

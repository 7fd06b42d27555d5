// Package value defines the typed values and tuples that populate
// relations in a blockchain database.
//
// Values are small immutable tagged unions. They are comparable in the
// Go sense (usable as map keys) and carry a total order so that denial
// constraints may compare them with <, >, =, and ≠, and aggregate
// functions may fold over them.
package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value may hold.
type Kind uint8

// The supported value kinds. KindNull sorts before every other kind;
// the remaining kinds sort by their numeric Kind when heterogeneous
// values are compared, so that the order over all values is total.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable typed value. The zero Value is Null.
//
// Value contains no pointers or slices, so it is comparable with == and
// may be used directly as a map key. Two Values are == exactly when
// they have the same kind and the same contents; note that for ordering
// (but not ==) integers and floats are compared numerically, so
// Int(1).Compare(Float(1.0)) == 0 even though Int(1) != Float(1.0).
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL-style missing value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value. Negative zero is normalized to
// positive zero: the two compare equal (in Go and under Compare) but
// have different bit patterns, which would otherwise break the
// invariant that ==-equal values share one key encoding — and make
// "-0" render unstably across parse/print round trips.
func Float(v float64) Value {
	if v == 0 {
		v = 0
	}
	return Value{kind: KindFloat, f: v}
}

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a Boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer contents. It panics if the value is not an
// integer; callers should check Kind first when the kind is not known.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the value as a float64. Integers are widened; it
// panics for non-numeric kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic("value: AsFloat on " + v.kind.String())
	}
}

// AsString returns the string contents. It panics if the value is not a
// string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the Boolean contents. It panics if the value is not a
// Boolean.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("value: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// IsNumeric reports whether the value is an integer or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare returns -1, 0, or +1 according to the total order over
// values. Within numeric kinds the comparison is numeric (so Int(2) <
// Float(2.5)); across non-numeric kinds values order by Kind, then by
// contents. Null sorts first.
func (v Value) Compare(o Value) int {
	if v.IsNumeric() && o.IsNumeric() {
		// Compare exactly when both are ints to avoid float rounding.
		if v.kind == KindInt && o.kind == KindInt {
			return cmpInt64(v.i, o.i)
		}
		return cmpFloat64(v.AsFloat(), o.AsFloat())
	}
	if v.kind != o.kind {
		return cmpInt64(int64(v.kind), int64(o.kind))
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmpInt64(v.i, o.i)
	case KindString:
		return strings.Compare(v.s, o.s)
	default:
		return 0
	}
}

// Equal reports whether the two values are equal under the total order
// (numeric cross-kind equality included).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	default:
		// NaNs sort before everything, equal to each other.
		an, bn := math.IsNaN(a), math.IsNaN(b)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
}

// String renders the value in a form accepted back by the query parser:
// strings are single-quoted, numerics are bare, null is "null".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "\\'") + "'"
	default:
		return "?"
	}
}

// Normalize coerces v to the given kind when a lossless conversion
// exists: int ↔ float (float → int only when integral), identity for
// matching kinds, and Null to anything. The second result reports
// whether the coercion succeeded. KindNull as the target means "any
// kind" and always succeeds.
func Normalize(v Value, k Kind) (Value, bool) {
	if k == KindNull || v.kind == KindNull || v.kind == k {
		return v, true
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return Float(float64(v.i)), true
	case v.kind == KindFloat && k == KindInt:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return Int(int64(v.f)), true
		}
		return v, false
	default:
		return v, false
	}
}

// AppendKey appends a self-delimiting encoding of v to dst and returns
// the extended slice. The encoding is injective over values for which
// == holds, which is what composite map keys require: distinct values
// yield distinct encodings. It is the allocation-free primitive behind
// Tuple.Key and Tuple.ProjectKey: callers that probe maps in hot loops
// build the key into a reusable buffer and look up with the
// map[string(buf)] form, which the compiler recognizes and compiles
// without materializing a string.
func (v Value) AppendKey(dst []byte) []byte {
	return v.appendKey(dst)
}

// appendKey appends a self-delimiting encoding of v to dst. The
// encoding is injective over values for which == holds, which is what
// composite map keys require: distinct values yield distinct encodings.
func (v Value) appendKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt:
		dst = appendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = appendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = appendUint64(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// trimKey reports whether key begins with v's key encoding and, if so,
// returns the remainder after it.
func (v Value) trimKey(key []byte) ([]byte, bool) {
	if len(key) == 0 || key[0] != byte(v.kind) {
		return nil, false
	}
	key = key[1:]
	switch v.kind {
	case KindNull:
		return key, true
	case KindBool, KindInt:
		return trimUint64(key, uint64(v.i))
	case KindFloat:
		return trimUint64(key, math.Float64bits(v.f))
	case KindString:
		key, ok := trimUint64(key, uint64(len(v.s)))
		if !ok || len(key) < len(v.s) || string(key[:len(v.s)]) != v.s {
			return nil, false
		}
		return key[len(v.s):], true
	}
	return nil, false
}

func trimUint64(key []byte, u uint64) ([]byte, bool) {
	if len(key) < 8 || binary.BigEndian.Uint64(key) != u {
		return nil, false
	}
	return key[8:], true
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

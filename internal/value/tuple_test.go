package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTupleClone(t *testing.T) {
	orig := NewTuple(Int(1), Str("x"))
	c := orig.Clone()
	if !c.Equal(orig) {
		t.Fatal("clone not equal to original")
	}
	c[0] = Int(99)
	if orig[0].AsInt() != 1 {
		t.Error("mutating clone affected original")
	}
}

func TestTupleProject(t *testing.T) {
	tp := NewTuple(Int(10), Int(20), Int(30), Int(40))
	got := tp.Project([]int{3, 1})
	want := NewTuple(Int(40), Int(20))
	if !got.Equal(want) {
		t.Errorf("Project = %v, want %v", got, want)
	}
	if got.Key() != tp.ProjectKey([]int{3, 1}) {
		t.Error("ProjectKey disagrees with Project().Key()")
	}
}

func TestTupleEqual(t *testing.T) {
	a := NewTuple(Int(1), Str("x"))
	b := NewTuple(Int(1), Str("x"))
	c := NewTuple(Int(1))
	d := NewTuple(Int(1), Str("y"))
	if !a.Equal(b) {
		t.Error("equal tuples reported unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("unequal tuples reported equal")
	}
	// Numeric cross-kind equality carries over to tuples.
	if !NewTuple(Int(1)).Equal(NewTuple(Float(1))) {
		t.Error("tuple Equal should use value total order")
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{NewTuple(Int(1)), NewTuple(Int(2)), -1},
		{NewTuple(Int(1), Int(5)), NewTuple(Int(1), Int(3)), 1},
		{NewTuple(Int(1)), NewTuple(Int(1), Int(0)), -1}, // shorter first
		{NewTuple(), NewTuple(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randomTuple(r *rand.Rand) Tuple {
	n := r.Intn(4)
	tp := make(Tuple, n)
	for i := range tp {
		tp[i] = randomValue(r)
	}
	return tp
}

// TestTupleKeyInjective: tuple keys collide exactly when tuples are
// element-wise identical (==, not just order-equal).
func TestTupleKeyInjective(t *testing.T) {
	identical := func(a, b Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTuple(r), randomTuple(r)
		return (a.Key() == b.Key()) == identical(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTupleHasKey: comparing in place agrees with comparing encodings,
// for whole tuples and projections, including truncated and extended
// keys.
func TestTupleHasKey(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTuple(r), randomTuple(r)
		if bKey := b.AppendKey(nil); a.HasKey(bKey) != (a.Key() == string(bKey)) {
			return false
		}
		key := a.AppendKey(nil)
		if !a.HasKey(key) || a.HasKey(append(key, 0)) || len(key) > 0 && a.HasKey(key[:len(key)-1]) {
			return false
		}
		if len(a) == 0 {
			return true
		}
		cols := []int{r.Intn(len(a)), r.Intn(len(a))}
		key = a.AppendProjectKey(nil, cols)
		if !a.HasProjectKey(cols, key) || a.HasProjectKey(cols[:1], key) {
			return false
		}
		other := b.AppendKey(nil)
		return a.HasProjectKey(cols, other) == (string(key) == string(other))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	tp := NewTuple(Int(1), Str("x"))
	if got := tp.String(); got != "(1, 'x')" {
		t.Errorf("String() = %q", got)
	}
}

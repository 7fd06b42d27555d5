package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"blockchaindb/internal/value"
)

// The index and key-map probes must agree with a brute-force scan in
// ascending position order, also when hashes collide. Narrowing
// hashMask to two bits puts most keys of the small domain below into
// shared buckets, so both the compare-once path (unmixed buckets) and
// the per-tuple path (mixed buckets) run.

// collisionMasks are the hash masks every index check runs under: the
// production mask, then one that forces collisions.
var collisionMasks = []uint64{^uint64(0), 3}

// fuzzDomain returns the 12 tuples of R(a:int, b:string) the index
// checks draw from: a in 0..3, b in {"", "x", "yy"}.
func fuzzDomain() []value.Tuple {
	var out []value.Tuple
	for a := 0; a < 4; a++ {
		for _, b := range []string{"", "x", "yy"} {
			out = append(out, value.NewTuple(value.Int(int64(a)), value.Str(b)))
		}
	}
	return out
}

// fuzzCols are the column sets the checks probe.
var fuzzCols = [][]int{{0}, {1}, {0, 1}, {1, 0}}

func fuzzSchema() *Schema { return NewSchema("R", "a:int", "b:string") }

// indexChecker holds the reference model of one relation under test:
// its distinct tuples in position order.
type indexChecker struct {
	t      *testing.T
	domain []value.Tuple
}

// matching returns the tuples of log at positions [lo, hi) whose
// projection on cols equals that of probe, in position order.
func matching(log []value.Tuple, cols []int, probe value.Tuple, lo, hi int) []value.Tuple {
	var out []value.Tuple
	for pos := max(lo, 0); pos < min(hi, len(log)); pos++ {
		if !slices.ContainsFunc(cols, func(c int) bool { return log[pos][c] != probe[c] }) {
			out = append(out, log[pos])
		}
	}
	return out
}

func collect(probe func(func(value.Tuple) bool) bool) []value.Tuple {
	var out []value.Tuple
	probe(func(tup value.Tuple) bool { out = append(out, tup); return true })
	return out
}

func sameTuples(a, b []value.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y value.Tuple) bool { return x.Equal(y) })
}

// checkRelation compares every probe of r with a scan of log.
func (c *indexChecker) checkRelation(what string, r *Relation, log []value.Tuple) {
	c.t.Helper()
	if r.Len() != len(log) {
		c.t.Fatalf("%s: Len %d, model %d", what, r.Len(), len(log))
	}
	for _, probe := range c.domain {
		want := slices.ContainsFunc(log, probe.Equal)
		if got := r.Contains(probe); got != want {
			c.t.Fatalf("%s: Contains%v = %v, model %v", what, probe, got, want)
		}
		if got := r.ContainsKey(probe.AppendKey(nil)); got != want {
			c.t.Fatalf("%s: ContainsKey%v = %v, model %v", what, probe, got, want)
		}
		for _, cols := range fuzzCols {
			key := probe.AppendProjectKey(nil, cols)
			got := collect(func(f func(value.Tuple) bool) bool { return r.LookupTuplesKey(cols, key, f) })
			if exp := matching(log, cols, probe, 0, len(log)); !sameTuples(got, exp) {
				c.t.Fatalf("%s: LookupTuplesKey(%v, %v) = %v, model %v", what, cols, probe.Project(cols), got, exp)
			}
			for lo := 0; lo <= len(log); lo += 3 {
				hi := lo + 2
				got := collect(func(f func(value.Tuple) bool) bool { return r.LookupTuplesKeyRange(cols, key, lo, hi, f) })
				if exp := matching(log, cols, probe, lo, hi); !sameTuples(got, exp) {
					c.t.Fatalf("%s: range [%d,%d) (%v, %v) = %v, model %v", what, lo, hi, cols, probe.Project(cols), got, exp)
				}
			}
		}
	}
}

// checkOverlay compares the overlay's probes, whole and windowed at
// every floor in floors, with scans of the base and extra models.
func (c *indexChecker) checkOverlay(o *Overlay, baseLog, extraLog []value.Tuple, floors []int) {
	c.t.Helper()
	if o.ExtraCount("R") != len(extraLog) {
		c.t.Fatalf("overlay: ExtraCount %d, model %d", o.ExtraCount("R"), len(extraLog))
	}
	for _, probe := range c.domain {
		want := slices.ContainsFunc(baseLog, probe.Equal) || slices.ContainsFunc(extraLog, probe.Equal)
		if got := o.Contains("R", probe); got != want {
			c.t.Fatalf("overlay: Contains%v = %v, model %v", probe, got, want)
		}
		if got := o.ContainsKey("R", probe.AppendKey(nil)); got != want {
			c.t.Fatalf("overlay: ContainsKey%v = %v, model %v", probe, got, want)
		}
		for _, cols := range fuzzCols {
			key := probe.AppendProjectKey(nil, cols)
			baseHits := matching(baseLog, cols, probe, 0, len(baseLog))
			got := collect(func(f func(value.Tuple) bool) bool { return o.LookupKey("R", cols, key, f) })
			if exp := append(slices.Clone(baseHits), matching(extraLog, cols, probe, 0, len(extraLog))...); !sameTuples(got, exp) {
				c.t.Fatalf("overlay: LookupKey(%v, %v) = %v, model %v", cols, probe.Project(cols), got, exp)
			}
			for _, floor := range floors {
				got := collect(func(f func(value.Tuple) bool) bool { return o.LookupKeyBelow("R", cols, key, floor, f) })
				if exp := append(slices.Clone(baseHits), matching(extraLog, cols, probe, 0, floor)...); !sameTuples(got, exp) {
					c.t.Fatalf("overlay: LookupKeyBelow(%v, %v, %d) = %v, model %v", cols, probe.Project(cols), floor, got, exp)
				}
				got = collect(func(f func(value.Tuple) bool) bool { return o.LookupKeyFrom("R", cols, key, floor, f) })
				if exp := matching(extraLog, cols, probe, floor, len(extraLog)); !sameTuples(got, exp) {
					c.t.Fatalf("overlay: LookupKeyFrom(%v, %v, %d) = %v, model %v", cols, probe.Project(cols), floor, got, exp)
				}
			}
		}
	}
}

// runIndexScript interprets script as a sequence of operations on a
// standalone relation and on an overlay, checking every probe against
// the models after each one. Each operation is one byte, plus one
// argument byte where it takes one:
//
//	0 x: Insert domain tuple x          3 x: Clone, insert x into the clone, adopt it
//	1 x: Truncate to x mod (Len+1)      4 x: overlay Push (AppendMark, Add a 1–3 tuple tx from x)
//	2:   Clear                          5:   overlay Pop to the last mark
//	                                    6:   overlay Reset
//
// The first four bytes seed the overlay's base relation.
func runIndexScript(t *testing.T, script []byte) {
	domain := fuzzDomain()
	c := &indexChecker{t: t, domain: domain}
	arg := func(i int) int {
		if i < len(script) {
			return int(script[i])
		}
		return 0
	}
	base := NewState()
	base.MustAddSchema(fuzzSchema())
	var baseLog []value.Tuple
	for i := 0; i < 4 && i < len(script); i++ {
		tup := domain[int(script[i])%len(domain)]
		if base.MustInsert("R", tup) {
			baseLog = append(baseLog, tup)
		}
	}
	o := NewOverlay(base)
	var extraLog []value.Tuple
	var marks, floors []int
	r := NewRelation(fuzzSchema())
	var log []value.Tuple
	insert := func(r *Relation, log []value.Tuple, tup value.Tuple) []value.Tuple {
		if r.MustInsert(tup) {
			log = append(log, tup)
		}
		return log
	}
	for i, ops := min(4, len(script)), 0; i < len(script) && ops < 48; ops++ {
		op, x := script[i]%7, arg(i+1)
		i++
		switch op {
		case 0:
			log = insert(r, log, domain[x%len(domain)])
			i++
		case 1:
			n := x % (len(log) + 1)
			r.Truncate(n)
			log = log[:n]
			i++
		case 2:
			r.Clear()
			log = log[:0]
		case 3:
			clone := r.Clone()
			cloneLog := insert(clone, slices.Clone(log), domain[x%len(domain)])
			c.checkRelation("original after clone insert", r, log)
			r, log = clone, cloneLog
			i++
		case 4:
			floors = append(floors, len(extraLog))
			marks = o.AppendMark(marks)
			tx := NewTransaction("T")
			for k := 0; k <= x%3; k++ {
				tx.Add("R", domain[(x/3+5*k)%len(domain)])
			}
			o.Add(tx)
			for _, tup := range tx.Tuples("R") {
				if !slices.ContainsFunc(baseLog, tup.Equal) && !slices.ContainsFunc(extraLog, tup.Equal) {
					extraLog = append(extraLog, tup)
				}
			}
			i++
		case 5:
			if len(floors) == 0 {
				continue
			}
			top := len(marks) - o.MarkLen()
			o.PopToMark(marks[top:])
			marks = marks[:top]
			extraLog = extraLog[:floors[len(floors)-1]]
			floors = floors[:len(floors)-1]
		case 6:
			o.Reset()
			extraLog, marks, floors = extraLog[:0], marks[:0], floors[:0]
		}
		c.checkRelation("relation", r, log)
		windows := append(slices.Clone(floors), 0, len(extraLog))
		slices.Sort(windows)
		c.checkOverlay(o, baseLog, extraLog, slices.Compact(windows))
	}
}

// withMasks runs f once under each collision mask.
func withMasks(t *testing.T, f func(t *testing.T)) {
	defer func(m uint64) { hashMask = m }(hashMask)
	for _, mask := range collisionMasks {
		hashMask = mask
		t.Run(fmt.Sprintf("mask=%#x", mask), f)
	}
}

func FuzzRelationIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 0, 7, 4, 9, 4, 20, 5, 1, 1, 3, 4, 2, 0, 0})
	f.Add([]byte{6, 6, 6, 6, 4, 0, 4, 1, 4, 2, 5, 4, 7, 6, 4, 11, 5, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 6, 0, 9, 1, 2, 0, 9, 3, 4, 2, 0, 1, 0, 2})
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 4; n++ {
		script := make([]byte, 64)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		withMasks(t, func(t *testing.T) { runIndexScript(t, script) })
	})
}

// TestBucketsMixOnlyOnCollision: with the production mask a bucket
// holds one key, so probes compare the head only; with every hash
// forced to one bucket, the bucket is flagged mixed and each tuple is
// compared.
func TestBucketsMixOnlyOnCollision(t *testing.T) {
	defer func(m uint64) { hashMask = m }(hashMask)
	for _, mask := range []uint64{^uint64(0), 0} {
		hashMask = mask
		r := NewRelation(fuzzSchema())
		for _, tup := range fuzzDomain() {
			r.MustInsert(tup)
		}
		idx := r.indexFor([]int{0})
		mixed := 0
		for _, b := range idx.buckets {
			if b.mixed() {
				mixed++
			}
		}
		wantBuckets, wantMixed := 4, 0
		if mask == 0 {
			wantBuckets, wantMixed = 1, 1
		}
		if len(idx.buckets) != wantBuckets || mixed != wantMixed {
			t.Errorf("mask %#x: %d buckets, %d mixed; want %d, %d", mask, len(idx.buckets), mixed, wantBuckets, wantMixed)
		}
		key := value.NewTuple(value.Int(2)).AppendKey(nil)
		if got := collect(func(f func(value.Tuple) bool) bool { return r.LookupTuplesKey([]int{0}, key, f) }); len(got) != 3 {
			t.Errorf("mask %#x: a=2 probe found %v, want 3 tuples", mask, got)
		}
	}
}

// TestRelationProbesDoNotAllocate: once the relation's maps and slices
// have grown, an index probe, a duplicate insert, and an overlay Reset
// followed by refilling one pending transaction allocate nothing.
func TestRelationProbesDoNotAllocate(t *testing.T) {
	base := NewState()
	base.MustAddSchema(fuzzSchema())
	for i := 0; i < 64; i++ {
		base.MustInsert("R", value.NewTuple(value.Int(int64(i%8)), value.Str(fmt.Sprint("pk", i))))
	}
	r := base.Relation("R")
	cols := []int{0}
	key := value.NewTuple(value.Int(3)).AppendKey(nil)
	n := 0
	count := func(value.Tuple) bool { n++; return true }
	r.LookupTuplesKey(cols, key, count) // builds the index
	if a := testing.AllocsPerRun(100, func() { r.LookupTuplesKey(cols, key, count) }); a != 0 {
		t.Errorf("index probe: %v allocs, want 0", a)
	}
	dup := r.At(5)
	if a := testing.AllocsPerRun(100, func() { r.Insert(dup) }); a != 0 {
		t.Errorf("duplicate insert: %v allocs, want 0", a)
	}

	tx := NewTransaction("T").
		Add("R", value.NewTuple(value.Int(3), value.Str("new1"))).
		Add("R", value.NewTuple(value.Int(3), value.Str("new2"))).
		Add("R", value.NewTuple(value.Int(9), value.Str("new3"))).
		Add("R", r.At(0)) // already in the base
	o := NewOverlay(base, tx)
	o.LookupKey("R", cols, key, count) // builds the overlay's index
	if a := testing.AllocsPerRun(100, func() {
		o.Reset()
		o.Add(tx)
	}); a != 0 {
		t.Errorf("overlay Reset and refill: %v allocs, want 0", a)
	}
	if got := o.ExtraCount("R"); got != 3 {
		t.Fatalf("refilled overlay holds %d extra tuples, want 3", got)
	}
}

// TestConcurrentProbesBuildIndexesOnce: readers on several goroutines
// probe a relation whose indexes do not exist yet; each column set is
// built once, and every reader sees the same answers.
func TestConcurrentProbesBuildIndexesOnce(t *testing.T) {
	r := NewRelation(fuzzSchema())
	var log []value.Tuple
	for i := 0; i < 200; i++ {
		tup := value.NewTuple(value.Int(int64(i%7)), value.Str(fmt.Sprint(i%5)))
		if r.MustInsert(tup) {
			log = append(log, tup)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, probe := range log {
				cols := fuzzCols[(g+int(probe[0].AsInt()))%len(fuzzCols)]
				key := probe.AppendProjectKey(nil, cols)
				got := collect(func(f func(value.Tuple) bool) bool { return r.LookupTuplesKey(cols, key, f) })
				if exp := matching(log, cols, probe, 0, len(log)); !sameTuples(got, exp) {
					t.Errorf("goroutine %d: LookupTuplesKey(%v, %v) = %v, want %v", g, cols, probe.Project(cols), got, exp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.indexes()) != len(fuzzCols) {
		t.Errorf("%d indexes built, want %d", len(r.indexes()), len(fuzzCols))
	}
}

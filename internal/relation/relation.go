package relation

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"blockchaindb/internal/value"
)

// Relation is a set of tuples over a schema, with optional hash indexes
// over column sets. Insertion preserves set semantics: duplicate tuples
// are ignored. Tuples keep their insertion order for deterministic
// iteration.
//
// The bookkeeping holds no pointers (see DESIGN.md §10): maps keyed by
// a hash of the key encoding, over int32 position chains. Positions
// are int32, so a relation holds at most math.MaxInt32 tuples.
//
// Reads — including the lazy index build on first lookup — are safe
// from concurrent goroutines; the parallel DCSat workers and concurrent
// Monitor checks all evaluate queries over shared relations. Mutation
// (Insert) still requires external exclusion against readers.
type Relation struct {
	schema *Schema
	tuples []value.Tuple
	// byKey maps a full-tuple key hash to the newest position with that
	// hash; keyPrev[pos] is the next older position with the same hash,
	// or noPos. Only distinct tuples whose keys collide share a chain.
	byKey   map[uint64]int32
	keyPrev []int32
	keyBuf  []byte // reusable key-encoding buffer for Insert and Truncate
	projBuf []byte // reusable projection-key buffer for index postings
	// idxList is the relation's index list, copy-on-write: readers
	// load it without a lock, and a build publishes a new list holding
	// the old indexes and the new one. idxMu serialises the builds. A
	// relation accumulates a handful of indexes at most.
	idxMu   sync.Mutex
	idxList atomic.Pointer[[]*hashIndex]
}

// hashIndex indexes a relation on a column set. Each bucket holds the
// positions whose projection key hashes alike, chained in ascending
// position order through next and prev (noPos ends a chain).
type hashIndex struct {
	cols       []int
	buckets    map[uint64]bucket // projection key hash -> chain
	next, prev []int32           // per position: its chain neighbours
}

// bucket packs one index bucket into a pointer-free word: the head
// (lowest position) of its chain in bits 32–62, the tail (highest) in
// bits 0–30, and bit 63 set once the bucket has held two different
// projection keys — which only a hash collision causes.
type bucket uint64

const (
	noPos    int32  = -1
	posMask  bucket = 1<<31 - 1
	mixedBit bucket = 1 << 63
)

func makeBucket(head, tail int32, mixed bool) bucket {
	b := bucket(head)<<32 | bucket(tail)
	if mixed {
		b |= mixedBit
	}
	return b
}

func (b bucket) head() int32                { return int32(b >> 32 & posMask) }
func (b bucket) tail() int32                { return int32(b & posMask) }
func (b bucket) mixed() bool                { return b&mixedBit != 0 }
func (b bucket) withTail(tail int32) bucket { return b&^posMask | bucket(tail) }

// hashSeed seeds every key hash. Buckets are found by hash but walked
// by position, so the seed never shows in iteration order.
var hashSeed = maphash.MakeSeed()

// hashMask is ANDed into every key hash. It is all ones; tests narrow
// it so that distinct keys share buckets and the collision paths run.
var hashMask = ^uint64(0)

func hashKey(key []byte) uint64 { return maphash.Bytes(hashSeed, key) & hashMask }

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{
		schema: schema,
		byKey:  make(map[uint64]int32),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// At returns the i-th tuple in insertion order.
func (r *Relation) At(i int) value.Tuple { return r.tuples[i] }

// Insert adds the tuple, returning false if an identical tuple is
// already present. The tuple is validated against the schema and
// numeric values are normalized to the declared column kinds; an
// invalid tuple, or one past the relation's capacity, returns an
// error.
func (r *Relation) Insert(t value.Tuple) (bool, error) {
	t, err := r.schema.Normalize(t)
	if err != nil {
		return false, err
	}
	if len(r.tuples) == math.MaxInt32 {
		return false, fmt.Errorf("relation %s: full at %d tuples", r.schema.Name, len(r.tuples))
	}
	r.keyBuf = t.AppendKey(r.keyBuf[:0])
	return r.insertNormalized(t, r.keyBuf), nil
}

// insertNormalized adds an already-normalized tuple given its key
// encoding. The duplicate check hashes the key and compares it with
// the tuples on its chain in place, so a re-inserted tuple (the common
// case when overlays refill from pending transactions) costs no
// allocation, and neither does an insert once the relation's slices
// and maps have grown.
func (r *Relation) insertNormalized(t value.Tuple, key []byte) bool {
	h := hashKey(key)
	newest, ok := r.byKey[h]
	if !ok {
		newest = noPos
	}
	for p := newest; p != noPos; p = r.keyPrev[p] {
		if r.tuples[p].HasKey(key) {
			return false
		}
	}
	if len(r.tuples) == math.MaxInt32 {
		panic(fmt.Sprintf("relation %s: full at %d tuples", r.schema.Name, len(r.tuples)))
	}
	pos := int32(len(r.tuples))
	r.tuples = append(r.tuples, t)
	r.keyPrev = append(r.keyPrev, newest)
	r.byKey[h] = pos
	for _, idx := range r.indexes() {
		r.projBuf = t.AppendProjectKey(r.projBuf[:0], idx.cols)
		idx.add(r.tuples, pos, r.projBuf)
	}
	return true
}

// add appends position pos, whose projection key is key, to its
// bucket's chain. The new tail's key is compared with the head's once,
// here, so that probes of an unmixed bucket need compare only its head.
func (idx *hashIndex) add(tuples []value.Tuple, pos int32, key []byte) {
	h := hashKey(key)
	idx.next = append(idx.next, noPos)
	b, ok := idx.buckets[h]
	if !ok {
		idx.prev = append(idx.prev, noPos)
		idx.buckets[h] = makeBucket(pos, pos, false)
		return
	}
	idx.prev = append(idx.prev, b.tail())
	idx.next[b.tail()] = pos
	mixed := b.mixed() || !tuples[b.head()].HasProjectKey(idx.cols, key)
	idx.buckets[h] = makeBucket(b.head(), pos, mixed)
}

// MustInsert is Insert but panics on schema violation; for internal
// callers that construct tuples programmatically.
func (r *Relation) MustInsert(t value.Tuple) bool {
	ok, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Contains reports whether an identical tuple (after normalization) is
// present.
func (r *Relation) Contains(t value.Tuple) bool {
	nt, err := r.schema.Normalize(t)
	if err != nil {
		return false
	}
	var buf [64]byte
	return r.ContainsKey(nt.AppendKey(buf[:0]))
}

// ContainsKey reports whether a tuple with the given full-tuple key
// encoding (value.Tuple.AppendKey of an already-normalized tuple) is
// present. It hashes the key and compares it in place with the tuples
// on its chain, so the probe allocates nothing.
func (r *Relation) ContainsKey(key []byte) bool {
	p, ok := r.byKey[hashKey(key)]
	if !ok {
		return false
	}
	for ; p != noPos; p = r.keyPrev[p] {
		if r.tuples[p].HasKey(key) {
			return true
		}
	}
	return false
}

// indexes returns the relation's built indexes. The list is never
// modified once published; a build publishes a new one.
func (r *Relation) indexes() []*hashIndex {
	if p := r.idxList.Load(); p != nil {
		return *p
	}
	return nil
}

// indexFor returns the hash index over the column set, building it once
// on first use. Resolving an existing index is one atomic load and a
// linear scan over the handful of indexes a relation ever accumulates:
// it takes no lock, so concurrent probes of one relation do not contend
// on a shared counter, and — unlike a signature-string map — it
// allocates nothing. Concurrent callers are safe: the first one in
// builds under idxMu, the rest wait for it and reuse its index.
func (r *Relation) indexFor(cols []int) *hashIndex {
	for _, idx := range r.indexes() {
		if slices.Equal(idx.cols, cols) {
			return idx
		}
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	old := r.indexes()
	for _, idx := range old {
		if slices.Equal(idx.cols, cols) {
			return idx
		}
	}
	idx := &hashIndex{
		cols:    slices.Clone(cols),
		buckets: make(map[uint64]bucket),
		next:    make([]int32, 0, len(r.tuples)),
		prev:    make([]int32, 0, len(r.tuples)),
	}
	var buf []byte
	for pos, t := range r.tuples {
		buf = t.AppendProjectKey(buf[:0], idx.cols)
		idx.add(r.tuples, int32(pos), buf)
	}
	list := append(slices.Clip(old), idx) // a new array: readers may hold old
	r.idxList.Store(&list)
	return idx
}

// LookupTuples iterates the tuples matching the projection key, calling
// f for each; f returning false stops iteration early. It reports
// whether iteration ran to completion.
func (r *Relation) LookupTuples(cols []int, projKey string, f func(value.Tuple) bool) bool {
	return r.LookupTuplesKey(cols, []byte(projKey), f)
}

// LookupTuplesKey is LookupTuples with the projection key supplied as a
// byte buffer (value.Tuple.AppendProjectKey encoding), so hot loops can
// reuse one buffer across probes; the probe itself allocates nothing.
func (r *Relation) LookupTuplesKey(cols []int, projKey []byte, f func(value.Tuple) bool) bool {
	return r.LookupTuplesKeyRange(cols, projKey, 0, len(r.tuples), f)
}

// Scan iterates all tuples in insertion order; f returning false stops
// early. It reports whether iteration ran to completion.
func (r *Relation) Scan(f func(value.Tuple) bool) bool {
	for _, t := range r.tuples {
		if !f(t) {
			return false
		}
	}
	return true
}

// ScanRange iterates the tuples at positions [lo, hi) in insertion
// order; f returning false stops early. It reports whether iteration
// ran to completion. Out-of-range bounds are clamped. Together with
// Truncate this is what lets an overlay expose "tuples before/after an
// undo mark" windows without copying anything.
func (r *Relation) ScanRange(lo, hi int, f func(value.Tuple) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.tuples) {
		hi = len(r.tuples)
	}
	for ; lo < hi; lo++ {
		if !f(r.tuples[lo]) {
			return false
		}
	}
	return true
}

// LookupTuplesKeyRange is LookupTuplesKey restricted to tuples at
// positions [lo, hi). Chains ascend, so the probe skips the
// below-window prefix and stops at the first position past the window;
// a bucket wholly outside the window costs nothing beyond the hash.
//
// The probe compares its key with the bucket's head only: every key in
// an unmixed bucket equals the head's. Only a mixed bucket has each
// tuple compared.
func (r *Relation) LookupTuplesKeyRange(cols []int, projKey []byte, lo, hi int, f func(value.Tuple) bool) bool {
	idx := r.indexFor(cols)
	b, ok := idx.buckets[hashKey(projKey)]
	if !ok || int(b.tail()) < lo || int(b.head()) >= hi {
		return true
	}
	mixed := b.mixed()
	if !mixed && !r.tuples[b.head()].HasProjectKey(cols, projKey) {
		return true
	}
	for pos := b.head(); pos != noPos && int(pos) < hi; pos = idx.next[pos] {
		if int(pos) < lo || mixed && !r.tuples[pos].HasProjectKey(cols, projKey) {
			continue
		}
		if !f(r.tuples[pos]) {
			return false
		}
	}
	return true
}

// Truncate removes the tuples at positions n and above — the exact
// inverse of the inserts that appended them, undoing key-map entries
// and index postings as well. Positions go high to low, so each one is
// the tail of its chains and pops in O(1): the cost is O(tuples
// removed × indexes), independent of the relation's size, which is
// what makes popping a transaction off an overlay's undo log cheap.
// Callers must exclude concurrent readers, as with Insert.
func (r *Relation) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(r.tuples) {
		return
	}
	for _, idx := range r.indexes() {
		for pos := len(r.tuples) - 1; pos >= n; pos-- {
			r.keyBuf = r.tuples[pos].AppendProjectKey(r.keyBuf[:0], idx.cols)
			h := hashKey(r.keyBuf)
			if p := idx.prev[pos]; p == noPos {
				delete(idx.buckets, h)
			} else {
				idx.next[p] = noPos
				idx.buckets[h] = idx.buckets[h].withTail(p)
			}
		}
		idx.next, idx.prev = idx.next[:n], idx.prev[:n]
	}
	for pos := len(r.tuples) - 1; pos >= n; pos-- {
		r.keyBuf = r.tuples[pos].AppendKey(r.keyBuf[:0])
		h := hashKey(r.keyBuf)
		if p := r.keyPrev[pos]; p == noPos {
			delete(r.byKey, h)
		} else {
			r.byKey[h] = p
		}
		r.tuples[pos] = nil // release the tuple for GC
	}
	r.tuples, r.keyPrev = r.tuples[:n], r.keyPrev[:n]
}

// Clear removes every tuple while keeping the schema, the key map's
// allocated buckets, and any built indexes (emptied in place), so a
// pooled relation refills without re-allocating its bookkeeping.
// Callers must exclude concurrent readers, as with Insert.
func (r *Relation) Clear() {
	r.tuples, r.keyPrev = r.tuples[:0], r.keyPrev[:0]
	clear(r.byKey)
	for _, idx := range r.indexes() {
		clear(idx.buckets)
		idx.next, idx.prev = idx.next[:0], idx.prev[:0]
	}
}

// Clone returns a deep-enough copy: tuples are shared (they are
// immutable) but all bookkeeping is fresh, so inserts into the clone do
// not affect the original. Indexes are not copied; they rebuild lazily.
func (r *Relation) Clone() *Relation {
	return &Relation{
		schema:  r.schema,
		tuples:  slices.Clone(r.tuples),
		byKey:   maps.Clone(r.byKey),
		keyPrev: slices.Clone(r.keyPrev),
	}
}

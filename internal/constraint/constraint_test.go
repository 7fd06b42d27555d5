package constraint

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
)

// bitcoinState builds the paper's Example 1 schema:
// TxOut(txId, ser, pk, amount), TxIn(prevTxId, prevSer, pk, amount, newTxId, sig).
func bitcoinState() *relation.State {
	s := relation.NewState()
	s.MustAddSchema(relation.NewSchema("TxOut", "txId:int", "ser:int", "pk:string", "amount:float"))
	s.MustAddSchema(relation.NewSchema("TxIn",
		"prevTxId:int", "prevSer:int", "pk:string", "amount:float", "newTxId:int", "sig:string"))
	return s
}

func bitcoinConstraints(s *relation.State) *Set {
	return MustNewSet(s,
		[]*FD{
			NewKey(s.Schema("TxOut"), "txId", "ser"),
			NewKey(s.Schema("TxIn"), "prevTxId", "prevSer"),
		},
		[]*IND{
			NewIND("TxIn", []string{"prevTxId", "prevSer", "pk", "amount"},
				"TxOut", []string{"txId", "ser", "pk", "amount"}),
			NewIND("TxIn", []string{"newTxId"}, "TxOut", []string{"txId"}),
		})
}

func out(txID, ser int64, pk string, amount float64) value.Tuple {
	return value.NewTuple(value.Int(txID), value.Int(ser), value.Str(pk), value.Float(amount))
}

func in(prevTxID, prevSer int64, pk string, amount float64, newTxID int64, sig string) value.Tuple {
	return value.NewTuple(value.Int(prevTxID), value.Int(prevSer), value.Str(pk),
		value.Float(amount), value.Int(newTxID), value.Str(sig))
}

func TestNewSetValidation(t *testing.T) {
	s := bitcoinState()
	if _, err := NewSet(s, []*FD{NewFD("Nope", nil, nil)}, nil); err == nil {
		t.Error("unknown relation in FD accepted")
	}
	if _, err := NewSet(s, []*FD{NewFD("TxOut", []string{"bogus"}, nil)}, nil); err == nil {
		t.Error("unknown LHS attribute accepted")
	}
	if _, err := NewSet(s, []*FD{NewFD("TxOut", []string{"txId"}, []string{"bogus"})}, nil); err == nil {
		t.Error("unknown RHS attribute accepted")
	}
	if _, err := NewSet(s, nil, []*IND{NewIND("TxIn", []string{"newTxId"}, "TxOut", []string{"txId", "ser"})}); err == nil {
		t.Error("mismatched IND column counts accepted")
	}
	if _, err := NewSet(s, nil, []*IND{NewIND("Nope", []string{"x"}, "TxOut", []string{"txId"})}); err == nil {
		t.Error("unknown IND relation accepted")
	}
	if _, err := NewSet(s, nil, []*IND{NewIND("TxIn", []string{"wrong"}, "TxOut", []string{"txId"})}); err == nil {
		t.Error("unknown IND attribute accepted")
	}
	if _, err := NewSet(s, nil, []*IND{NewIND("TxIn", []string{"newTxId"}, "TxOut", []string{"wrong"})}); err == nil {
		t.Error("unknown IND ref attribute accepted")
	}
}

func TestSetKindPredicates(t *testing.T) {
	s := bitcoinState()
	keysOnly := MustNewSet(s, []*FD{NewKey(s.Schema("TxOut"), "txId", "ser")}, nil)
	if !keysOnly.HasKeys() || keysOnly.HasProperFDs() || keysOnly.HasINDs() {
		t.Error("keysOnly predicates wrong")
	}
	fdOnly := MustNewSet(s, []*FD{NewFD("TxOut", []string{"txId"}, []string{"pk"})}, nil)
	if fdOnly.HasKeys() || !fdOnly.HasProperFDs() {
		t.Error("fdOnly predicates wrong")
	}
	full := bitcoinConstraints(s)
	if !full.HasKeys() || !full.HasINDs() {
		t.Error("full predicates wrong")
	}
}

func TestStrings(t *testing.T) {
	s := bitcoinState()
	key := NewKey(s.Schema("TxOut"), "txId", "ser")
	if got := key.String(); got != "key TxOut(txId,ser)" {
		t.Errorf("key String = %q", got)
	}
	fd := NewFD("TxOut", []string{"txId"}, []string{"pk"})
	if got := fd.String(); got != "fd TxOut: txId -> pk" {
		t.Errorf("fd String = %q", got)
	}
	ind := NewIND("TxIn", []string{"newTxId"}, "TxOut", []string{"txId"})
	if got := ind.String(); got != "ind TxIn[newTxId] <= TxOut[txId]" {
		t.Errorf("ind String = %q", got)
	}
}

func TestCheckSatisfied(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(1, 1, "A", 1))
	s.MustInsert("TxOut", out(2, 1, "B", 2))
	s.MustInsert("TxIn", in(1, 1, "A", 1, 2, "ASig"))
	if err := set.Check(s); err != nil {
		t.Errorf("consistent state rejected: %v", err)
	}
}

func TestCheckFDViolation(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(1, 1, "A", 1))
	s.MustInsert("TxOut", out(1, 1, "B", 2)) // same key, different pk — wait: set semantics dedupe identical tuples only
	err := set.Check(s)
	if err == nil {
		t.Fatal("key violation not detected")
	}
	var v *Violation
	if !asViolation(err, &v) {
		t.Fatalf("error is not a Violation: %T", err)
	}
	if v.Rel != "TxOut" || v.Other == nil {
		t.Errorf("violation misdescribed: %+v", v)
	}
	if !strings.Contains(v.Error(), "key TxOut") {
		t.Errorf("violation message %q lacks constraint", v.Error())
	}
}

func asViolation(err error, out **Violation) bool {
	v, ok := err.(*Violation)
	if ok {
		*out = v
	}
	return ok
}

func TestCheckINDViolation(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(2, 1, "B", 1))
	s.MustInsert("TxIn", in(1, 1, "A", 1, 2, "ASig")) // references missing TxOut(1,1,...)
	err := set.Check(s)
	if err == nil {
		t.Fatal("IND violation not detected")
	}
	var v *Violation
	if !asViolation(err, &v) || v.Other != nil {
		t.Errorf("IND violation misdescribed: %v", err)
	}
	if !strings.Contains(v.Error(), "no referenced tuple") {
		t.Errorf("violation message %q", v.Error())
	}
}

func TestCanAppendFD(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(1, 1, "A", 1))

	// Conflicts with existing key.
	clash := relation.NewTransaction("clash").Add("TxOut", out(1, 1, "B", 9))
	if set.CanAppend(s, clash) {
		t.Error("key clash with state accepted")
	}
	// Internal conflict.
	internal := relation.NewTransaction("internal").
		Add("TxOut", out(5, 1, "A", 1)).
		Add("TxOut", out(5, 1, "B", 1))
	if set.CanAppend(s, internal) {
		t.Error("internally inconsistent transaction accepted")
	}
	// Fine.
	ok := relation.NewTransaction("ok").Add("TxOut", out(5, 1, "A", 1))
	if !set.CanAppend(s, ok) {
		t.Errorf("consistent transaction rejected: %v", set.AppendViolation(s, ok))
	}
}

func TestCanAppendIND(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(1, 1, "A", 1))

	// Input referencing a missing output.
	dangling := relation.NewTransaction("dangling").
		Add("TxIn", in(9, 9, "Z", 1, 10, "ZSig")).
		Add("TxOut", out(10, 1, "B", 1))
	if set.CanAppend(s, dangling) {
		t.Error("dangling input accepted")
	}
	// Valid spend: consumes TxOut(1,1,A,1), creates tx 2.
	spend := relation.NewTransaction("spend").
		Add("TxIn", in(1, 1, "A", 1, 2, "ASig")).
		Add("TxOut", out(2, 1, "B", 1))
	if !set.CanAppend(s, spend) {
		t.Errorf("valid spend rejected: %v", set.AppendViolation(s, spend))
	}
	// Self-providing: the transaction both requires and provides the
	// referenced output.
	if err := s.InsertTransaction(spend); err != nil {
		t.Fatal(err)
	}
	chain := relation.NewTransaction("chain").
		Add("TxIn", in(2, 1, "B", 1, 3, "BSig")).
		Add("TxOut", out(3, 1, "C", 1))
	if !set.CanAppend(s, chain) {
		t.Errorf("chained spend rejected: %v", set.AppendViolation(s, chain))
	}
}

func TestCanAppendOnOverlay(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(1, 1, "A", 1))
	t1 := relation.NewTransaction("T1").
		Add("TxIn", in(1, 1, "A", 1, 2, "ASig")).
		Add("TxOut", out(2, 1, "B", 1))
	t2 := relation.NewTransaction("T2").
		Add("TxIn", in(2, 1, "B", 1, 3, "BSig")).
		Add("TxOut", out(3, 1, "C", 1))
	// T2 depends on T1: not appendable to s alone, appendable to s ∪ T1.
	if set.CanAppend(s, t2) {
		t.Error("dependent transaction appendable without its parent")
	}
	world := relation.NewOverlay(s, t1)
	if !set.CanAppend(world, t2) {
		t.Errorf("dependent transaction rejected on overlay: %v", set.AppendViolation(world, t2))
	}
}

// fdHalfAdmits runs the FD half of the append test alone.
func fdHalfAdmits(set *Set, world relation.View, tx *relation.Transaction) bool {
	sc := appendScratchPool.Get().(*appendScratch)
	defer appendScratchPool.Put(sc)
	return set.fdFault(sc, world, tx).cons == nil
}

// TestAppendTestDoesNotAllocate: on an overlay whose indexes are
// built, both halves of the append test allocate nothing, whether they
// admit the transaction or refuse it — the getMaximal fixpoint runs
// them thousands of times per check, and refusals are common there.
func TestAppendTestDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	s := bitcoinState()
	set := bitcoinConstraints(s)
	s.MustInsert("TxOut", out(1, 1, "A", 1))
	s.MustInsert("TxOut", out(1, 2, "A", 1))
	t1 := relation.NewTransaction("T1").
		Add("TxIn", in(1, 1, "A", 1, 2, "ASig")).
		Add("TxOut", out(2, 1, "B", 1)).
		Add("TxOut", out(2, 2, "B", 1))
	world := relation.NewOverlay(s, t1)
	chained := relation.NewTransaction("chained").
		Add("TxIn", in(2, 1, "B", 1, 3, "BSig")).
		Add("TxOut", out(3, 1, "C", 1))
	doubleSpend := relation.NewTransaction("double").
		Add("TxIn", in(1, 1, "A", 1, 4, "ASig")).
		Add("TxOut", out(4, 1, "D", 1))
	dangling := relation.NewTransaction("dangling").
		Add("TxIn", in(9, 1, "Z", 1, 5, "ZSig")).
		Add("TxOut", out(5, 1, "E", 1))
	cases := []struct {
		name string
		tx   *relation.Transaction
		run  func(relation.View, *relation.Transaction) bool
		want bool
	}{
		{"CanAppend admits", chained, set.CanAppend, true},
		{"CanAppend refuses on the FD half", doubleSpend, set.CanAppend, false},
		{"CanAppend refuses on the IND half", dangling, set.CanAppend, false},
		{"CanAppendIND admits", chained, set.CanAppendIND, true},
		{"CanAppendIND admits an FD clash", doubleSpend, set.CanAppendIND, true},
		{"CanAppendIND refuses", dangling, set.CanAppendIND, false},
		{"the FD half admits", chained, func(w relation.View, tx *relation.Transaction) bool {
			return fdHalfAdmits(set, w, tx)
		}, true},
		{"the FD half refuses", doubleSpend, func(w relation.View, tx *relation.Transaction) bool {
			return fdHalfAdmits(set, w, tx)
		}, false},
	}
	for _, c := range cases {
		if got := c.run(world, c.tx); got != c.want { // also builds the probed indexes
			t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
		}
		if a := testing.AllocsPerRun(100, func() { c.run(world, c.tx) }); a != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, a)
		}
	}
}

func TestFDCompatible(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	// Classic double spend: both consume TxOut(1,1).
	a := relation.NewTransaction("A").
		Add("TxIn", in(1, 1, "A", 1, 2, "ASig")).
		Add("TxOut", out(2, 1, "B", 1))
	b := relation.NewTransaction("B").
		Add("TxIn", in(1, 1, "A", 1, 3, "ASig")).
		Add("TxOut", out(3, 1, "C", 1))
	if set.FDCompatible(a, b) {
		t.Error("double spend reported compatible")
	}
	c := relation.NewTransaction("C").
		Add("TxIn", in(4, 1, "D", 1, 5, "DSig")).
		Add("TxOut", out(5, 1, "E", 1))
	if !set.FDCompatible(a, c) {
		t.Error("independent transactions reported incompatible")
	}
	// Sharing an identical tuple is not a conflict.
	dup := relation.NewTransaction("dup").
		Add("TxIn", in(1, 1, "A", 1, 2, "ASig"))
	if !set.FDCompatible(a, dup) {
		t.Error("shared identical tuple treated as conflict")
	}
	if !set.FDSelfConsistent(a) {
		t.Error("self-consistent transaction rejected")
	}
	inconsistent := relation.NewTransaction("bad").
		Add("TxOut", out(7, 1, "A", 1)).
		Add("TxOut", out(7, 1, "B", 1))
	if set.FDSelfConsistent(inconsistent) {
		t.Error("self-inconsistent transaction accepted")
	}
}

func TestFDKeys(t *testing.T) {
	s := bitcoinState()
	set := bitcoinConstraints(s)
	tx := relation.NewTransaction("T").
		Add("TxOut", out(1, 1, "A", 1)).
		Add("TxOut", out(1, 2, "A", 2))
	lhs, rhs := set.FDKeys(0, tx) // FD 0 is key TxOut(txId, ser)
	if len(lhs) != 2 || len(rhs) != 2 {
		t.Fatalf("FDKeys lengths: %d, %d", len(lhs), len(rhs))
	}
	if lhs[0] == lhs[1] {
		t.Error("distinct keys produced identical LHS keys")
	}
}

// randomTx builds a random transaction over a single relation
// R(k:int, v:int) with key {k}.
func randomTx(r *rand.Rand, name string) *relation.Transaction {
	tx := relation.NewTransaction(name)
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		tx.Add("R", value.NewTuple(value.Int(int64(r.Intn(4))), value.Int(int64(r.Intn(3)))))
	}
	return tx
}

// TestCanAppendAgainstFullCheck cross-validates the incremental
// append test against a from-scratch Check of the materialized union,
// over random states and transactions: CanAppend against the whole
// set, and each half against its own dependencies.
func TestCanAppendAgainstFullCheck(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := relation.NewState()
		s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
		s.MustAddSchema(relation.NewSchema("S", "k:int"))
		set := MustNewSet(s,
			[]*FD{NewKey(s.Schema("R"), "k")},
			[]*IND{NewIND("S", []string{"k"}, "R", []string{"k"})})
		// Grow a consistent base state.
		for i := 0; i < 4; i++ {
			tup := value.NewTuple(value.Int(int64(i)), value.Int(int64(r.Intn(3))))
			s.MustInsert("R", tup)
		}
		s.MustInsert("S", value.NewTuple(value.Int(int64(r.Intn(4)))))
		if set.Check(s) != nil {
			t.Fatal("base state should be consistent")
		}
		tx := randomTx(r, "T")
		if r.Intn(2) == 0 {
			tx.Add("S", value.NewTuple(value.Int(int64(r.Intn(8)))))
		}
		incremental := set.CanAppend(s, tx)
		// Reference: materialize and fully check.
		full := s.Clone()
		if err := full.InsertTransaction(tx); err != nil {
			t.Fatal(err)
		}
		reference := set.Check(full) == nil
		// Each half against its own dependencies checked from scratch.
		fdOK, indOK := true, true
		for i, fd := range set.FDs {
			fdOK = fdOK && set.checkFD(full, i, fd) == nil
		}
		for i, ind := range set.INDs {
			indOK = indOK && set.checkIND(full, i, ind) == nil
		}
		return incremental == reference &&
			fdHalfAdmits(set, s, tx) == fdOK &&
			set.CanAppendIND(s, tx) == indOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFDCompatibleAgainstFullCheck cross-validates FDCompatible against
// a full FD check over the union of two random transactions.
func TestFDCompatibleAgainstFullCheck(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := relation.NewState()
		s.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
		set := MustNewSet(s, []*FD{NewKey(s.Schema("R"), "k")}, nil)
		a, b := randomTx(r, "A"), randomTx(r, "B")
		got := set.FDCompatible(a, b)
		union := relation.NewState()
		union.MustAddSchema(relation.NewSchema("R", "k:int", "v:int"))
		if err := union.InsertTransaction(a); err != nil {
			t.Fatal(err)
		}
		if err := union.InsertTransaction(b); err != nil {
			t.Fatal(err)
		}
		want := set.Check(union) == nil
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

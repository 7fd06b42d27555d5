package relation

import (
	"fmt"
	"testing"

	"blockchaindb/internal/value"
)

func txOutSchema() *Schema {
	return NewSchema("TxOut", "txId:int", "ser:int", "pk:string", "amount:float")
}

func TestSchemaBasics(t *testing.T) {
	s := txOutSchema()
	if s.Arity() != 4 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if i, ok := s.Col("pk"); !ok || i != 2 {
		t.Errorf("Col(pk) = %d, %v", i, ok)
	}
	if _, ok := s.Col("nope"); ok {
		t.Error("Col(nope) should not exist")
	}
	if got := s.Cols("amount", "txId"); got[0] != 3 || got[1] != 0 {
		t.Errorf("Cols = %v", got)
	}
	if got := s.AllCols(); len(got) != 4 || got[3] != 3 {
		t.Errorf("AllCols = %v", got)
	}
	want := "TxOut(txId:int, ser:int, pk:string, amount:float)"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
}

func TestSchemaMustColPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	txOutSchema().MustCol("missing")
}

func TestNewSchemaBadKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSchema("R", "a:decimal")
}

func TestSchemaCheck(t *testing.T) {
	s := txOutSchema()
	ok := value.NewTuple(value.Int(1), value.Int(1), value.Str("pk"), value.Float(0.5))
	if err := s.Check(ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// Numeric flexibility: int in a float column.
	okInt := value.NewTuple(value.Int(1), value.Int(1), value.Str("pk"), value.Int(1))
	if err := s.Check(okInt); err != nil {
		t.Errorf("int into float column rejected: %v", err)
	}
	// Nulls allowed anywhere.
	okNull := value.NewTuple(value.Null, value.Int(1), value.Str("pk"), value.Float(1))
	if err := s.Check(okNull); err != nil {
		t.Errorf("null rejected: %v", err)
	}
	bad := value.NewTuple(value.Int(1), value.Int(1), value.Int(7), value.Float(0.5))
	if err := s.Check(bad); err == nil {
		t.Error("int into string column accepted")
	}
	short := value.NewTuple(value.Int(1))
	if err := s.Check(short); err == nil {
		t.Error("wrong arity accepted")
	}
	anyS := NewSchema("S", "x") // untyped column
	if err := anyS.Check(value.NewTuple(value.Str("anything"))); err != nil {
		t.Errorf("untyped column rejected value: %v", err)
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation(txOutSchema())
	tup := value.NewTuple(value.Int(1), value.Int(1), value.Str("pk"), value.Float(1))
	if ins, err := r.Insert(tup); err != nil || !ins {
		t.Fatalf("first insert: %v %v", ins, err)
	}
	if ins, err := r.Insert(tup.Clone()); err != nil || ins {
		t.Fatalf("duplicate insert should be a no-op: %v %v", ins, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(tup) {
		t.Error("Contains lost the tuple")
	}
	if _, err := r.Insert(value.NewTuple(value.Int(1))); err == nil {
		t.Error("bad arity accepted")
	}
}

func TestRelationIndexMaintainedAcrossInserts(t *testing.T) {
	r := NewRelation(txOutSchema())
	pkCol := []int{2}
	key := []byte(value.NewTuple(value.Str("A")).Key())
	// Build the index while empty, then insert: index must stay correct.
	if got := len(lookupAll(r, pkCol, key)); got != 0 {
		t.Fatalf("empty relation found %d tuples", got)
	}
	for i := 0; i < 10; i++ {
		pk := "A"
		if i%2 == 1 {
			pk = "B"
		}
		r.MustInsert(value.NewTuple(value.Int(int64(i)), value.Int(0), value.Str(pk), value.Float(1)))
	}
	got := lookupAll(r, pkCol, key)
	if len(got) != 5 {
		t.Errorf("Lookup(A) found %d tuples, want 5", len(got))
	}
	for i, tup := range got {
		if tup[0].AsInt() != int64(2*i) {
			t.Errorf("Lookup(A)[%d] = %v, want insertion order", i, tup)
		}
	}
	// Index built after inserts must agree.
	r2 := NewRelation(txOutSchema())
	r.Scan(func(t value.Tuple) bool { r2.MustInsert(t); return true })
	if got2 := lookupAll(r2, pkCol, key); fmt.Sprint(got2) != fmt.Sprint(got) {
		t.Errorf("lazily built index found %v, want %v", got2, got)
	}
}

func TestRelationLookupTuplesEarlyStop(t *testing.T) {
	r := NewRelation(NewSchema("R", "a:int"))
	for i := 0; i < 5; i++ {
		r.MustInsert(value.NewTuple(value.Int(int64(i % 2))))
	}
	// Only 0 and 1 are distinct under set semantics.
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	n := 0
	completed := r.LookupTuples([]int{0}, value.NewTuple(value.Int(0)).Key(), func(value.Tuple) bool {
		n++
		return false
	})
	if completed || n != 1 {
		t.Errorf("early stop: completed=%v n=%d", completed, n)
	}
}

func TestRelationClone(t *testing.T) {
	r := NewRelation(NewSchema("R", "a:int"))
	r.MustInsert(value.NewTuple(value.Int(1)))
	c := r.Clone()
	c.MustInsert(value.NewTuple(value.Int(2)))
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: orig %d clone %d", r.Len(), c.Len())
	}
	if !c.Contains(value.NewTuple(value.Int(1))) {
		t.Error("clone lost original tuple")
	}
}

func TestStateBasics(t *testing.T) {
	s := NewState()
	s.MustAddSchema(txOutSchema())
	if err := s.AddSchema(txOutSchema()); err == nil {
		t.Error("duplicate schema accepted")
	}
	if s.Relation("TxOut") == nil || s.Relation("Nope") != nil {
		t.Error("Relation lookup wrong")
	}
	if s.Schema("TxOut") == nil || s.Schema("Nope") != nil {
		t.Error("Schema lookup wrong")
	}
	if _, err := s.Insert("Nope", value.NewTuple()); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	s.MustInsert("TxOut", value.NewTuple(value.Int(1), value.Int(1), value.Str("pk"), value.Float(1)))
	if s.Size() != 1 {
		t.Errorf("Size = %d", s.Size())
	}
}

func TestStateEqualAndFingerprint(t *testing.T) {
	mk := func(order []int64) *State {
		s := NewState()
		s.MustAddSchema(NewSchema("R", "a:int"))
		for _, v := range order {
			s.MustInsert("R", value.NewTuple(value.Int(v)))
		}
		return s
	}
	a := mk([]int64{1, 2, 3})
	b := mk([]int64{3, 1, 2})
	if !a.Equal(b) {
		t.Error("order-insensitive Equal failed")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprints should match regardless of insertion order")
	}
	c := mk([]int64{1, 2})
	if a.Equal(c) || a.Fingerprint() == c.Fingerprint() {
		t.Error("different contents compared equal")
	}
}

func TestStateClone(t *testing.T) {
	s := NewState()
	s.MustAddSchema(NewSchema("R", "a:int"))
	s.MustInsert("R", value.NewTuple(value.Int(1)))
	c := s.Clone()
	c.MustInsert("R", value.NewTuple(value.Int(2)))
	if s.Size() != 1 || c.Size() != 2 {
		t.Error("clone not independent")
	}
}

func TestTransaction(t *testing.T) {
	tx := NewTransaction("T1")
	tx.Add("R", value.NewTuple(value.Int(1))).
		Add("R", value.NewTuple(value.Int(1))). // dup ignored
		Add("S", value.NewTuple(value.Str("x")))
	if tx.Size() != 2 {
		t.Errorf("Size = %d", tx.Size())
	}
	if got := tx.Relations(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("Relations = %v", got)
	}
	if tx.String() != "T1" {
		t.Errorf("String = %q", tx.String())
	}
	anon := NewTransaction("")
	anon.Add("R", value.NewTuple(value.Int(9)))
	if anon.String() != "tx[1 tuples]" {
		t.Errorf("anon String = %q", anon.String())
	}
}

func TestTransactionSubsetOf(t *testing.T) {
	s := NewState()
	s.MustAddSchema(NewSchema("R", "a:int"))
	s.MustInsert("R", value.NewTuple(value.Int(1)))
	in := NewTransaction("in").Add("R", value.NewTuple(value.Int(1)))
	out := NewTransaction("out").Add("R", value.NewTuple(value.Int(2)))
	foreign := NewTransaction("f").Add("Unknown", value.NewTuple(value.Int(1)))
	if !in.SubsetOf(s) {
		t.Error("contained transaction reported not subset")
	}
	if out.SubsetOf(s) || foreign.SubsetOf(s) {
		t.Error("non-subset transaction reported subset")
	}
}

func TestStateInsertTransaction(t *testing.T) {
	s := NewState()
	s.MustAddSchema(NewSchema("R", "a:int"))
	tx := NewTransaction("T").Add("R", value.NewTuple(value.Int(5)))
	if err := s.InsertTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("R", value.NewTuple(value.Int(5))) {
		t.Error("transaction tuple missing after insert")
	}
	bad := NewTransaction("B").Add("Missing", value.NewTuple(value.Int(1)))
	if err := s.InsertTransaction(bad); err == nil {
		t.Error("insert into unknown relation accepted")
	}
}

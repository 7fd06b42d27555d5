package core_test

import (
	"context"
	"testing"
	"time"

	"blockchaindb/internal/core"
	"blockchaindb/internal/query"
	"blockchaindb/internal/workload"
)

// TestPossibleAnswersD200Decides: on the D200 analogue (260 pending
// transactions) the possible answers of a selective recipient query are
// decided well inside a 2 s deadline, and they include every certain
// answer. Deciding each candidate as one Check keeps the search inside
// the components that can hold the candidate, which is what makes the
// deadline reachable.
func TestPossibleAnswersD200Decides(t *testing.T) {
	if testing.Short() {
		t.Skip("D200 answers in -short mode")
	}
	ds := workload.Generate(workload.DefaultConfig())
	q := query.MustParse("q(pk) :- TxOut(n, s, pk, a), a > 400")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	certain, err := core.CertainAnswers(ctx, ds.DB, q)
	if err != nil {
		t.Fatal(err)
	}
	possible, err := core.PossibleAnswers(ctx, ds.DB, q)
	if err != nil {
		t.Fatalf("PossibleAnswers on D200: %v", err)
	}
	t.Logf("%d pending: %d certain, %d possible answers", len(ds.DB.Pending), len(certain), len(possible))
	if len(possible) <= len(certain) {
		t.Errorf("%d possible answers, %d certain: pending outputs add none", len(possible), len(certain))
	}
	found := make(map[string]bool, len(possible))
	for _, tp := range possible {
		found[tp.Key()] = true
	}
	for _, tp := range certain {
		if !found[tp.Key()] {
			t.Errorf("certain answer %v is not a possible answer", tp)
		}
	}
}

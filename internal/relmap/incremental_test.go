package relmap

import (
	"context"
	"testing"

	"blockchaindb/internal/bitcoin"
	"blockchaindb/internal/core"
	"blockchaindb/internal/query"
)

// nmAgree cross-validates the delta-synced NodeMonitor against a
// database freshly mapped from the same chain and mempool.
func nmAgree(t *testing.T, nm *NodeMonitor, queries []*query.Query) {
	t.Helper()
	fresh, err := Database(nm.chain, nm.mempool)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		warm, err := nm.Check(context.Background(), q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Check(context.Background(), fresh, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Satisfied != cold.Satisfied {
			t.Fatalf("%s: delta-synced monitor %v, fresh map %v", q, warm.Satisfied, cold.Satisfied)
		}
	}
}

// TestNodeMonitorSyncMatchesRebuild drives a node through mempool
// arrivals and mined blocks and checks that the delta-synced monitor
// stays verdict-equivalent to remapping from scratch — without ever
// falling back to a rebuild.
func TestNodeMonitorSyncMatchesRebuild(t *testing.T) {
	r := newRig(t)
	r.mine(t)
	nm, err := NewNodeMonitor(r.chain, r.mempool)
	if err != nil {
		t.Fatal(err)
	}
	bobPk := PubKeyString(r.bob.PubKey())
	queries := []*query.Query{
		query.MustParse("qs() :- TxOut(t, s, '" + bobPk + "', a)"),
		query.MustParse("q() :- TxOut(t, s, 'deadbeef', a)"),
	}
	nmAgree(t, nm, queries)

	// Mempool delta: a pending payment to Bob.
	pay, err := r.alice.Pay(r.chain.UTXO(),
		[]bitcoin.Payment{{To: r.bob.PubKey(), Amount: 2 * bitcoin.Coin}}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mempool.Add(pay); err != nil {
		t.Fatal(err)
	}
	if err := nm.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := nm.PendingID(pay.ID()); !ok {
		t.Fatal("synced mempool transaction has no pending id")
	}
	nmAgree(t, nm, queries)

	// Chain delta: mining commits the payment (and a coinbase the
	// monitor never saw as pending).
	r.mine(t)
	if err := nm.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := nm.PendingID(pay.ID()); ok {
		t.Fatal("mined transaction still mapped as pending")
	}
	nmAgree(t, nm, queries)

	// Another round of both, then a no-op sync.
	pay2, err := r.alice.Pay(r.chain.UTXO(),
		[]bitcoin.Payment{{To: r.bob.PubKey(), Amount: bitcoin.Coin}}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mempool.Add(pay2); err != nil {
		t.Fatal(err)
	}
	if err := nm.Sync(); err != nil {
		t.Fatal(err)
	}
	r.mine(t)
	if err := nm.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := nm.Sync(); err != nil {
		t.Fatal(err)
	}
	nmAgree(t, nm, queries)

	if nm.Rebuilds() != 0 {
		t.Fatalf("delta path fell back to %d rebuilds", nm.Rebuilds())
	}
}

// TestNodeMonitorWarmRecheckHitsCache: after one checkpoint check, the
// next check on an unchanged node replays every covered component —
// from the delta sweep's verdict map when the query is sweep-eligible,
// otherwise from the per-component verdict cache — without
// searching any component again.
func TestNodeMonitorWarmRecheckHitsCache(t *testing.T) {
	r := newRig(t)
	r.mine(t)
	pay, err := r.alice.Pay(r.chain.UTXO(),
		[]bitcoin.Payment{{To: r.bob.PubKey(), Amount: 2 * bitcoin.Coin}}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mempool.Add(pay); err != nil {
		t.Fatal(err)
	}
	nm, err := NewNodeMonitor(r.chain, r.mempool)
	if err != nil {
		t.Fatal(err)
	}
	bobPk := PubKeyString(r.bob.PubKey())
	q := query.MustParse("qs() :- TxOut(t, s, '" + bobPk + "', a)")
	opts := core.Options{Algorithm: core.AlgoOpt, DisablePrecheck: true}
	res1, err := nm.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	cs1 := nm.CacheStats()
	res2, err := nm.Check(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Satisfied != res2.Satisfied {
		t.Fatalf("verdict changed on warm recheck: %v then %v", res1.Satisfied, res2.Satisfied)
	}
	if res2.Stats.ComponentsCached == 0 {
		t.Fatalf("warm recheck replayed no components: %+v", res2.Stats)
	}
	cs2 := nm.CacheStats()
	if cs2.Misses != cs1.Misses || cs2.Stores != cs1.Stores {
		t.Fatalf("warm recheck searched components again: %+v then %+v", cs1, cs2)
	}
}

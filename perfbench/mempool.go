package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"blockchaindb/internal/constraint"
	"blockchaindb/internal/core"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
	"blockchaindb/internal/workload"
)

// The mempool workload: an in-process core.Monitor over a large,
// churning pending set. The generator below owns the ground truth: it
// knows which outputs are committed, which are spent in the state and
// which pending transactions spend what, so it can pick appendable
// transactions for blocks and knows every standing constraint's
// verdict at every step.

// mpShape sizes the workload.
type mpShape struct {
	coinbases, history, pending int
	cacheEntries                int // Monitor verdict-cache capacity
	chainProb                   float64
	// rivals is how many committed outputs the generator keeps
	// double-spent by pending transactions: an add makes a rival
	// whenever fewer are contested. A fixed count keeps the conflict
	// graph, and so the cost of a check, from drifting within a run
	// and from seed to seed.
	rivals                int
	blockEvery, blockSize int // steps between blocks, commits per block
	plantEvery            int // steps between plant toggles
	verifyEvery           int // recorded steps between untimed snapshot cross-checks
}

var (
	mpFull = mpShape{coinbases: 3000, history: 800, pending: 400, cacheEntries: 100,
		chainProb: 0.2, rivals: 6, blockEvery: 100, blockSize: 5, plantEvery: 75, verifyEvery: 1500}
	mpTiny = mpShape{coinbases: 300, history: 40, pending: 120, cacheEntries: 30,
		chainProb: 0.2, rivals: 2, blockEvery: 40, blockSize: 3, plantEvery: 10, verifyEvery: 100}
)

type outKey struct{ tx, ser int64 }

type mpOut struct {
	key outKey
	pk  string
	amt int64
}

// outInfo tracks one output: whether it is committed, whether the
// state already spends it, and how many pending transactions spend it.
type outInfo struct {
	out       mpOut
	committed bool
	spent     bool    // spent in the state
	by        []*mpTx // pending transactions spending it
}

type mpTx struct {
	id    int // Monitor id
	tx    *relation.Transaction
	ins   []outKey
	outs  []mpOut
	plant string // "" for traffic
}

// Plants, each toggled in and out of the pending set; the standing
// constraints below are violated exactly while the matching plant is
// pending.
const (
	plantWatchA = "watchA"
	plantWatchB = "watchB"
	plantWhale  = "whale"
	plantHop    = "hop"
)

var plantOrder = []string{plantWatchA, plantWhale, plantHop, plantWatchB}

// whaleAmount is above every traffic amount (at most 1,000,000).
const whaleAmount = 9_000_000

// standing is one standing constraint. violatedBy names the plant
// whose presence violates it ("" = satisfied throughout).
type standing struct {
	name       string
	q          *query.Query
	violatedBy string
}

func standingConstraints() []standing {
	return []standing{
		// Sweep-eligible: one atom, connected, no Θ_q equalities.
		{"absent", query.MustParse("q() :- TxOut(n, s, 'NoSuchPk', a)"), ""},
		{"watch_a", query.MustParse("q() :- TxOut(n, s, 'WatchAPk', a)"), plantWatchA},
		{"watch_b", query.MustParse("q() :- TxOut(n, s, 'WatchBPk', a)"), plantWatchB},
		{"whale", query.MustParse(fmt.Sprintf("q() :- TxOut(n, s, pk, a), a > %d", whaleAmount/2)), plantWhale},
		// Not sweep-eligible: joins add Θ_q equalities.
		{"hop_path", query.MustParse("q() :- TxOut(n1, s1, 'HopAPk', a1), TxIn(n1, s1, 'HopAPk', a1, n2, g), TxOut(n2, s2, 'HopBPk', a2)"), plantHop},
		{"double_spend", query.MustParse("q() :- TxIn(t, s, pk, a, n1, g1), TxIn(t, s, pk, a, n2, g2), n1 != n2"), ""},
	}
}

// mempoolGen is the generator and the ground truth.
type mempoolGen struct {
	rng    *rand.Rand
	shape  mpShape
	state  *relation.State
	cons   *constraint.Set
	nextTx int64
	outs   map[outKey]*outInfo
	free   []outKey // committed, unspent, no pending spender (lazily validated)
	// contested holds the committed, state-unspent outputs that two or
	// more pending transactions spend.
	contested map[outKey]bool
	pending   map[int]*mpTx
	order     []int       // pending ids, for uniform picks
	pos       map[int]int // id -> index in order
	plants    map[string][]int
	mon       *core.Monitor
}

func newMempoolGen(seed int64, shape mpShape) (*mempoolGen, error) {
	g := &mempoolGen{
		rng: rand.New(rand.NewSource(seed)), shape: shape, state: workload.Schema(), nextTx: 1,
		outs: make(map[outKey]*outInfo), pending: make(map[int]*mpTx), pos: make(map[int]int),
		plants: make(map[string][]int), contested: make(map[outKey]bool),
	}
	for i := 0; i < shape.coinbases; i++ {
		id := g.newID()
		o := mpOut{outKey{id, 1}, g.user(), int64(1000 + g.rng.Intn(999_000))}
		g.state.MustInsert("TxOut", outRow(o))
		g.outs[o.key] = &outInfo{out: o, committed: true}
	}
	// Committed history: some coinbases already spent on.
	for i := 0; i < shape.history; i++ {
		k, ok := g.takeFree()
		if !ok {
			break
		}
		src := g.outs[k]
		id := g.newID()
		g.state.MustInsert("TxIn", inRow(src.out, id))
		src.spent = true
		o := mpOut{outKey{id, 1}, g.user(), src.out.amt}
		g.state.MustInsert("TxOut", outRow(o))
		g.outs[o.key] = &outInfo{out: o, committed: true}
	}
	for k, info := range g.outs {
		if !info.spent {
			g.free = append(g.free, k)
		}
	}
	// Map iteration order is random; sort the pool so the seed alone
	// decides the inputs.
	sortKeys(g.free)
	g.cons = workload.Constraints(g.state)
	var txs []*relation.Transaction
	for len(txs) < shape.pending {
		t, err := g.newTraffic()
		if err != nil {
			return nil, err
		}
		t.id = len(txs) // NewMonitor assigns ids in registration order
		g.register(t)
		txs = append(txs, t.tx)
	}
	db, err := possible.New(g.state, g.cons, txs)
	if err != nil {
		return nil, fmt.Errorf("mempool: %w", err)
	}
	g.mon = core.NewMonitor(db, core.WithCache(shape.cacheEntries))
	ids := make([]int, len(txs))
	for i := range ids {
		ids[i] = i
	}
	for i, id := range g.mon.IDsForSlots(ids) {
		if id != i {
			return nil, fmt.Errorf("mempool: monitor assigned id %d to initial transaction %d", id, i)
		}
	}
	return g, nil
}

func (g *mempoolGen) newID() int64 { id := g.nextTx; g.nextTx++; return id }

func (g *mempoolGen) user() string { return fmt.Sprintf("U%dPk", g.rng.Intn(5000)) }

func outRow(o mpOut) value.Tuple {
	return value.NewTuple(value.Int(o.key.tx), value.Int(o.key.ser), value.Str(o.pk), value.Int(o.amt))
}

func inRow(src mpOut, newTx int64) value.Tuple {
	return value.NewTuple(value.Int(src.key.tx), value.Int(src.key.ser), value.Str(src.pk),
		value.Int(src.amt), value.Int(newTx), value.Str(src.pk+"Sig"))
}

// takeFree pops a committed, unspent output nobody pending spends.
func (g *mempoolGen) takeFree() (outKey, bool) {
	for len(g.free) > 0 {
		i := g.rng.Intn(len(g.free))
		k := g.free[i]
		g.free[i] = g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
		if info := g.outs[k]; info != nil && info.committed && !info.spent && len(info.by) == 0 {
			return k, true
		}
	}
	return outKey{}, false
}

// chainInput picks an output of a pending traffic transaction that no
// other pending transaction spends yet.
func (g *mempoolGen) chainInput() (outKey, bool) {
	if t := g.pickTraffic(4); t != nil {
		for _, o := range t.outs {
			if len(g.outs[o.key].by) == 0 {
				return o.key, true
			}
		}
	}
	return outKey{}, false
}

// rivalInput picks the committed, state-unspent input of a pending
// traffic transaction that nothing else spends yet, to double-spend it.
func (g *mempoolGen) rivalInput() (outKey, bool) {
	if t := g.pickTraffic(4); t != nil {
		if info := g.outs[t.ins[0]]; info.committed && !info.spent && len(info.by) == 1 {
			return t.ins[0], true
		}
	}
	return outKey{}, false
}

// spend builds a transaction consuming src and paying the payees; the
// amounts of traffic stay at most the input's (at most 1,000,000).
func (g *mempoolGen) spend(src outKey, payees []string, amounts []int64, plant string) *mpTx {
	id := g.newID()
	t := &mpTx{tx: relation.NewTransaction(fmt.Sprintf("T%d", id)), ins: []outKey{src}, plant: plant}
	t.tx.Add("TxIn", inRow(g.outs[src].out, id))
	for i, pk := range payees {
		o := mpOut{outKey{id, int64(i + 1)}, pk, amounts[i]}
		t.tx.Add("TxOut", outRow(o))
		t.outs = append(t.outs, o)
	}
	return t
}

// newTraffic makes one traffic transaction: a rival of a pending spend
// while fewer than shape.rivals outputs are contested, else a chain on
// a pending output or a fresh spend.
func (g *mempoolGen) newTraffic() (*mpTx, error) {
	var (
		src outKey
		ok  bool
	)
	switch {
	case len(g.contested) < g.shape.rivals:
		src, ok = g.rivalInput()
	case g.rng.Float64() < g.shape.chainProb:
		src, ok = g.chainInput()
	}
	if !ok {
		if src, ok = g.takeFree(); !ok {
			return nil, fmt.Errorf("mempool: committed outputs exhausted")
		}
	}
	amt := g.outs[src].out.amt
	if g.rng.Intn(2) == 0 || amt < 2 {
		return g.spend(src, []string{g.user()}, []int64{amt}, ""), nil
	}
	part := 1 + g.rng.Int63n(amt-1)
	return g.spend(src, []string{g.user(), g.user()}, []int64{part, amt - part}, ""), nil
}

// register records a transaction the Monitor now holds under t.id.
func (g *mempoolGen) register(t *mpTx) {
	g.pending[t.id] = t
	g.pos[t.id] = len(g.order)
	g.order = append(g.order, t.id)
	for _, k := range t.ins {
		g.outs[k].by = append(g.outs[k].by, t)
		g.recount(k)
	}
	for _, o := range t.outs {
		g.outs[o.key] = &outInfo{out: o}
	}
}

// recount updates whether output k is contested.
func (g *mempoolGen) recount(k outKey) {
	if info := g.outs[k]; info != nil && info.committed && !info.spent && len(info.by) >= 2 {
		g.contested[k] = true
	} else {
		delete(g.contested, k)
	}
}

// forget removes a transaction that was dropped (committed=false) or
// committed.
func (g *mempoolGen) forget(t *mpTx, committed bool) {
	delete(g.pending, t.id)
	i := g.pos[t.id]
	last := g.order[len(g.order)-1]
	g.order[i] = last
	g.pos[last] = i
	g.order = g.order[:len(g.order)-1]
	delete(g.pos, t.id)
	for _, k := range t.ins {
		info := g.outs[k]
		for i, c := range info.by {
			if c == t {
				info.by = append(info.by[:i], info.by[i+1:]...)
				break
			}
		}
		if committed {
			info.spent = true
		} else if info.committed && !info.spent && len(info.by) == 0 {
			g.free = append(g.free, k)
		}
		g.recount(k)
	}
	for _, o := range t.outs {
		info := g.outs[o.key]
		if committed {
			info.committed = true
			if len(info.by) == 0 {
				g.free = append(g.free, o.key)
			}
			g.recount(o.key)
		} else {
			// Dropped transactions are evicted with their descendants
			// (mempoolRun.evict), so nothing spends this output any
			// more.
			delete(g.outs, o.key)
		}
	}
}

// appendable reports whether every input is committed and unspent in
// the state: exactly the transactions Commit accepts.
func (g *mempoolGen) appendable(t *mpTx) bool {
	for _, k := range t.ins {
		info := g.outs[k]
		if !info.committed || info.spent {
			return false
		}
	}
	return true
}

// pickTraffic returns a random pending traffic transaction, or nil
// when tries picks all hit plants.
func (g *mempoolGen) pickTraffic(tries int) *mpTx {
	for i := 0; i < tries && len(g.order) > 0; i++ {
		t := g.pending[g.order[g.rng.Intn(len(g.order))]]
		if t.plant == "" {
			return t
		}
	}
	return nil
}

// mpOp names the kind of a mempool step's timed call.
type mpOp int

const (
	opAdd mpOp = iota
	opDrop
	opCommit
	opCheck
)

var opNames = [...]string{"monitor.add", "monitor.drop", "monitor.commit", "monitor.check"}

// mempoolRun holds one run's measurement state.
type mempoolRun struct {
	g          *mempoolGen
	cons       []standing
	latency    [4][]time.Duration
	warm, post []time.Duration
	agg        stageAgg
	steps      int
	dirty      []bool // constraint not checked since the last commit
	nextCheck  int    // the standing constraint the next check runs
	recorded   int    // recorded steps, for spacing the cross-checks
}

// add, drop and commit are the Monitor mutations; each returns its
// latency.
func (r *mempoolRun) add(t *mpTx) (time.Duration, error) {
	st := time.Now()
	id, err := r.g.mon.AddPending(t.tx)
	d := time.Since(st)
	if err != nil {
		return 0, fmt.Errorf("mempool add: %w", err)
	}
	t.id = id
	r.g.register(t)
	return d, nil
}

func (r *mempoolRun) drop(t *mpTx) (time.Duration, error) {
	st := time.Now()
	err := r.g.mon.DropPending(t.id)
	d := time.Since(st)
	if err != nil {
		return 0, fmt.Errorf("mempool drop: %w", err)
	}
	r.g.forget(t, false)
	return d, nil
}

func (r *mempoolRun) commit(t *mpTx) (time.Duration, error) {
	st := time.Now()
	err := r.g.mon.Commit(t.id)
	d := time.Since(st)
	if err != nil {
		return 0, fmt.Errorf("%w: mempool commit of a transaction the generator holds appendable: %v", errMismatch, err)
	}
	r.g.forget(t, true)
	for i := range r.dirty {
		r.dirty[i] = true
	}
	return d, nil
}

// want is the generator's verdict for a standing constraint.
func (r *mempoolRun) want(c standing) bool {
	return c.violatedBy == "" || len(r.g.plants[c.violatedBy]) == 0
}

// togglePlant adds the plant when absent and drops it when present.
func (r *mempoolRun) togglePlant(name string, m *meter, ops *int) error {
	g := r.g
	if ids := g.plants[name]; len(ids) > 0 {
		for i := len(ids) - 1; i >= 0; i-- { // children first
			d, err := r.drop(g.pending[ids[i]])
			if err != nil {
				return err
			}
			r.note(m, opDrop, d)
			*ops++
		}
		delete(g.plants, name)
		return nil
	}
	src, ok := g.takeFree()
	if !ok {
		return fmt.Errorf("mempool: committed outputs exhausted")
	}
	amt := g.outs[src].out.amt
	var txs []*mpTx
	switch name {
	case plantWatchA:
		txs = append(txs, g.spend(src, []string{"WatchAPk"}, []int64{amt}, name))
	case plantWatchB:
		txs = append(txs, g.spend(src, []string{"WatchBPk"}, []int64{amt}, name))
	case plantWhale:
		txs = append(txs, g.spend(src, []string{g.user()}, []int64{whaleAmount}, name))
	case plantHop:
		first := g.spend(src, []string{"HopAPk"}, []int64{amt}, name)
		txs = append(txs, first)
		g.outs[first.outs[0].key] = &outInfo{out: first.outs[0]}
		txs = append(txs, g.spend(first.outs[0].key, []string{"HopBPk"}, []int64{amt}, name))
	}
	for _, t := range txs {
		d, err := r.add(t)
		if err != nil {
			return err
		}
		r.note(m, opAdd, d)
		*ops++
		g.plants[name] = append(g.plants[name], t.id)
	}
	return nil
}

// note records a mutation's latency and, in a traced step, adds it to
// the step's span tree (span methods are no-ops on the nil span of an
// untraced step).
func (r *mempoolRun) note(m *meter, op mpOp, d time.Duration) {
	m.cur.AddStage(opNames[op], d)
	if m.record {
		r.latency[op] = append(r.latency[op], d)
	}
}

// check runs one standing constraint through Monitor.Check and
// compares the verdict with the generator's.
func (r *mempoolRun) check(ctx context.Context, i int, m *meter) error {
	c := r.cons[i]
	st := time.Now()
	res, err := r.g.mon.Check(ctx, c.q, core.Options{})
	d := time.Since(st)
	if err != nil {
		return fmt.Errorf("mempool check %s: %w", c.name, err)
	}
	if want := r.want(c); res.Satisfied != want {
		return fmt.Errorf("%w: mempool %s satisfied=%v, generator says %v", errMismatch, c.name, res.Satisfied, want)
	}
	post := r.dirty[i]
	r.dirty[i] = false
	if m.record {
		r.latency[opCheck] = append(r.latency[opCheck], d)
		if post {
			r.post = append(r.post, d)
		} else {
			r.warm = append(r.warm, d)
		}
		r.agg.add(res.Stats)
	}
	return nil
}

// step is one operation of the seeded stream, plus the periodic block,
// plant toggle and (untimed) snapshot cross-check.
func (r *mempoolRun) step(m *meter) (int, error) {
	g := r.g
	r.steps++
	ops := 0
	ctx, finish := m.root("mempool.step")
	defer finish()
	if r.steps%g.shape.blockEvery == 0 {
		for n, tries := 0, 0; n < g.shape.blockSize && tries < 50*g.shape.blockSize; tries++ {
			t := g.pickTraffic(1)
			if t == nil || !g.appendable(t) {
				continue
			}
			d, err := r.commit(t)
			if err != nil {
				return 0, err
			}
			r.note(m, opCommit, d)
			ops++
			n++
			// As a node does when a block arrives, evict the pending
			// transactions that spend what the block spent.
			for _, k := range t.ins {
				for by := g.outs[k].by; len(by) > 0; by = g.outs[k].by {
					if err := r.evict(by[len(by)-1], m, &ops); err != nil {
						return 0, err
					}
				}
			}
		}
	}
	if r.steps%g.shape.plantEvery == 0 {
		name := plantOrder[(r.steps/g.shape.plantEvery)%len(plantOrder)]
		if err := r.togglePlant(name, m, &ops); err != nil {
			return 0, err
		}
	}
	if m.record {
		r.recorded++
		if r.recorded%g.shape.verifyEvery == 0 {
			if err := m.untimed(r.crossCheck); err != nil {
				return 0, err
			}
		}
	}
	// Two steps in three mutate: an add while fewer than shape.pending
	// transactions are pending, else a drop, so the pool keeps its size
	// (blocks take transactions out between). The third checks the
	// standing constraints in turn.
	switch {
	case g.rng.Intn(3) == 2:
		i := r.nextCheck % len(r.cons)
		r.nextCheck++
		if err := r.check(ctx, i, m); err != nil {
			return 0, err
		}
	case len(g.order) < g.shape.pending:
		t, err := g.newTraffic()
		if err != nil {
			return 0, err
		}
		d, err := r.add(t)
		if err != nil {
			return 0, err
		}
		r.note(m, opAdd, d)
	default:
		t := g.pickTraffic(8)
		if t == nil {
			return ops, nil
		}
		if err := r.evict(t, m, &ops); err != nil {
			return 0, err
		}
		return ops, nil
	}
	return ops + 1, nil
}

// evict drops t and, before it, every pending descendant of t, which
// could otherwise never be appended. The pending set so holds no
// transaction that is in no possible world, and its cost per check
// stays level over a run.
func (r *mempoolRun) evict(t *mpTx, m *meter, ops *int) error {
	for _, o := range t.outs {
		for by := r.g.outs[o.key].by; len(by) > 0; by = r.g.outs[o.key].by {
			if err := r.evict(by[len(by)-1], m, ops); err != nil {
				return err
			}
		}
	}
	d, err := r.drop(t)
	if err != nil {
		return err
	}
	r.note(m, opDrop, d)
	*ops++
	return nil
}

// crossCheck rebuilds the monitored database as a stateless snapshot
// and checks every standing constraint three ways: the Monitor, the
// stateless core.Check and the generator must agree, and every
// violated verdict's witness must be a reachable world where q holds.
func (r *mempoolRun) crossCheck() error {
	g := r.g
	ids := append([]int(nil), g.order...)
	txs := make([]*relation.Transaction, len(ids))
	slot := make(map[int]int, len(ids))
	for i, id := range ids {
		txs[i] = g.pending[id].tx
		slot[id] = i
	}
	snap, err := possible.New(g.state.Clone(), g.cons, txs)
	if err != nil {
		return fmt.Errorf("mempool snapshot: %w", err)
	}
	var samples []witnessSample
	for _, c := range r.cons {
		want := r.want(c)
		mres, err := g.mon.Check(context.Background(), c.q, core.Options{})
		if err != nil {
			return fmt.Errorf("mempool check %s: %w", c.name, err)
		}
		var mw []int
		for _, id := range g.mon.IDsForSlots(mres.Witness) {
			s, ok := slot[id]
			if !ok {
				return fmt.Errorf("%w: mempool monitor witness of %s names id %d, which is not pending", errMismatch, c.name, id)
			}
			mw = append(mw, s)
		}
		sres, err := core.Check(context.Background(), snap, c.q, core.Options{})
		if err != nil {
			return fmt.Errorf("mempool stateless check %s: %w", c.name, err)
		}
		if mres.Satisfied != want || sres.Satisfied != want {
			return fmt.Errorf("%w: mempool snapshot %s: monitor %v, stateless %v, generator %v",
				errMismatch, c.name, mres.Satisfied, sres.Satisfied, want)
		}
		if !want {
			samples = append(samples,
				witnessSample{db: snap, q: c.q, witness: mw, label: "mempool monitor " + c.name},
				witnessSample{db: snap, q: c.q, witness: sres.Witness, label: "mempool stateless " + c.name})
		}
	}
	return revalidate(samples)
}

func runMempool(cfg runConfig) (*report, error) {
	shape := mpFull
	if cfg.tiny {
		shape = mpTiny
	}
	reps := 15
	if cfg.trace {
		reps = 1
	}
	setup, g, err := timeSetup(reps, func() (*mempoolGen, error) { return newMempoolGen(cfg.seed, shape) })
	if err != nil {
		return nil, err
	}
	r := &mempoolRun{g: g, cons: standingConstraints()}
	r.dirty = make([]bool, len(r.cons))
	warm := 300
	if cfg.tiny {
		warm = 50
	}
	cache0 := g.mon.CacheStats()
	w, err := measure(cfg, warm, r.step)
	if err != nil {
		return nil, err
	}
	// One more cross-check of the final state, outside the timed region.
	if err := r.crossCheck(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if cfg.trace {
		zeroLayers(out)
		r.agg.values(out)
		w.rt.values(w.ops, out)
		var mut []time.Duration
		for _, op := range []mpOp{opAdd, opDrop, opCommit} {
			mut = append(mut, r.latency[op]...)
		}
		out["mutate_p50_us"] = us(pct(mut, 0.5))
		out["mutate_p99_us"] = us(pct(mut, 0.99))
		out["monitor.add_p50_us"] = us(pct(r.latency[opAdd], 0.5))
		out["monitor.drop_p50_us"] = us(pct(r.latency[opDrop], 0.5))
		out["monitor.commit_p50_us"] = us(pct(r.latency[opCommit], 0.5))
		out["monitor.commit_p99_us"] = us(pct(r.latency[opCommit], 0.99))
		gs := g.mon.GraphStatsSnapshot()
		out["monitor.components"] = float64(gs.Components)
		out["monitor.conflict_pairs"] = float64(gs.ConflictPairs)
		out["monitor.check_warm_p50_us"] = us(pct(r.warm, 0.5))
		out["monitor.check_postcommit_p50_ms"] = ms(pct(r.post, 0.5))
		cs := g.mon.CacheStats()
		out["reuse.cache_evicted"] = float64(cs.Evicted - cache0.Evicted)
		out["reuse.cache_invalidated"] = float64(cs.Invalidated - cache0.Invalidated)
		out["trace.overhead_ratio"] = w.traceOverhead()
		w.tree.render(treeOut)
	} else {
		out["setup_s"] = setup
		out["ops_per_s"] = w.opsPerSec()
		checkLatencies(r.latency[opCheck], out)
		out["peak_rss_mb"] = peakRSSMB()
	}
	return &report{attempted: w.ops, values: out}, nil
}

func sortKeys(ks []outKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].tx != ks[j].tx {
			return ks[i].tx < ks[j].tx
		}
		return ks[i].ser < ks[j].ser
	})
}

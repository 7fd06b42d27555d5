package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"blockchaindb/dcsatd/api"
	"blockchaindb/dcsatd/client"
	"blockchaindb/internal/core"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
	"blockchaindb/internal/value"
	"blockchaindb/internal/workload"
)

// The serve workload: the /v1 path. A dcsatd binary built from the
// tree runs on loopback with a few tenants, each registered with an
// explicit, benchmark-generated dataset and a named-constraint set
// larger than the eight sweep slots. A closed loop sends a seeded
// stream of check and delta requests over one connection, and each
// request is timed from its send to its decoded response.

// serveShape sizes the workload.
type serveShape struct {
	tenants     int
	data        workload.Config // Seed is set per tenant
	deltaShare  float64         // share of requests that are deltas
	warmup      int             // requests before the measured window
	setupRounds int
}

var (
	serveFull = serveShape{
		tenants: 2,
		data: workload.Config{Blocks: 40, TxPerBlock: 10, Users: 60, PendingBlocks: 6,
			PendingTxPerBlock: 10, Contradictions: 6, ChainProb: 0.3, MaxOuts: 3},
		deltaShare: 0.1, warmup: 500, setupRounds: 7,
	}
	serveTiny = serveShape{
		tenants: 1,
		data: workload.Config{Blocks: 10, TxPerBlock: 4, Users: 20, PendingBlocks: 3,
			PendingTxPerBlock: 6, Contradictions: 2, ChainProb: 0.3, MaxOuts: 2},
		deltaShare: 0.1, warmup: 20, setupRounds: 1,
	}
)

// tenantData is one tenant's generated database, its registration and
// the named constraints with their planted verdicts.
type tenantData struct {
	name    string
	ds      *workload.Dataset
	req     *api.RegisterRequest
	names   []string
	want    map[string]bool // satisfied, by constraint name
	queries map[string]*query.Query
}

// buildTenant generates a tenant's dataset and its registration.
func buildTenant(name string, cfg workload.Config) (*tenantData, error) {
	ds := workload.Generate(cfg)
	td := &tenantData{name: name, ds: ds, want: map[string]bool{}, queries: map[string]*query.Query{}}
	req := &api.RegisterRequest{
		Tenant: name,
		Schemas: []api.SchemaSpec{
			{Name: "TxOut", Columns: []string{"txId:int", "ser:int", "pk:string", "amount:int"}},
			{Name: "TxIn", Columns: []string{"prevTxId:int", "prevSer:int", "pk:string", "amount:int", "newTxId:int", "sig:string"}},
		},
		FDs: []api.FDSpec{
			{Rel: "TxOut", LHS: []string{"txId", "ser"}},
			{Rel: "TxIn", LHS: []string{"prevTxId", "prevSer"}},
		},
		INDs: []api.INDSpec{
			{Rel: "TxIn", Cols: []string{"prevTxId", "prevSer", "pk", "amount"}, RefRel: "TxOut", RefCols: []string{"txId", "ser", "pk", "amount"}},
			{Rel: "TxIn", Cols: []string{"newTxId"}, RefRel: "TxOut", RefCols: []string{"txId"}},
		},
		Queries: map[string]string{},
	}
	genesis := api.TxSpec{Name: "genesis"}
	for _, rel := range []string{"TxOut", "TxIn"} {
		r := ds.DB.State.Relation(rel)
		ins := api.Insert{Rel: rel}
		for i := 0; i < r.Len(); i++ {
			ins.Rows = append(ins.Rows, wireRow(r.At(i)))
		}
		genesis.Inserts = append(genesis.Inserts, ins)
	}
	req.State = []api.TxSpec{genesis}
	for _, tx := range ds.DB.Pending {
		req.Pending = append(req.Pending, wireTx(tx))
	}
	type family struct {
		kind workload.QueryKind
		size int
	}
	for _, f := range []family{
		{workload.QuerySimple, 0}, {workload.QueryPath, 2}, {workload.QueryPath, 3}, {workload.QueryPath, 4},
		{workload.QueryStar, 2}, {workload.QueryStar, 3}, {workload.QueryAggregate, 0},
	} {
		for _, sat := range []bool{true, false} {
			q, err := ds.Query(f.kind, f.size, sat)
			if err != nil {
				return nil, err
			}
			n := fmt.Sprintf("%s%d_%s", f.kind, f.size, map[bool]string{true: "sat", false: "viol"}[sat])
			req.Queries[n] = q.String()
			td.names = append(td.names, n)
			td.want[n] = sat
			td.queries[n] = q
		}
	}
	td.req = req
	return td, nil
}

func wireRow(t value.Tuple) api.Row {
	row := make(api.Row, len(t))
	for i, v := range t {
		switch v.Kind() {
		case value.KindInt:
			row[i] = v.AsInt()
		default:
			row[i] = v.AsString()
		}
	}
	return row
}

func wireTx(tx *relation.Transaction) api.TxSpec {
	spec := api.TxSpec{Name: tx.Name}
	for _, rel := range tx.Relations() {
		ins := api.Insert{Rel: rel}
		for _, t := range tx.Tuples(rel) {
			ins.Rows = append(ins.Rows, wireRow(t))
		}
		spec.Inserts = append(spec.Inserts, ins)
	}
	return spec
}

// daemon is a running dcsatd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

var listenRE = regexp.MustCompile(`addr="?([0-9.]+:[0-9]+)`)

// startDaemon launches dcsatd on a loopback port chosen by the kernel
// and waits until it reports its address and answers /healthz.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve: no dcsatd binary (--dcsatd)")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-log", "info")
	// The daemon dies with the benchmark even when the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("serve: start dcsatd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain stderr until the daemon exits, picking up its address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "panic") || strings.Contains(sc.Text(), "level=error") {
				warnf("dcsatd: %s", sc.Text())
			}
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && strings.Contains(sc.Text(), "listening") {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		return nil, errors.New("serve: dcsatd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("serve: dcsatd did not report its address")
	}
	c := client.New("http://" + d.addr)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := c.Healthz(context.Background()); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("serve: dcsatd not healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGINT (a graceful drain), kills after a grace period,
// and waits until the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB reads the daemon's peak resident set size.
func (d *daemon) peakRSSMB() float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// memStats reads the runtime counters dcsatd publishes on /debug/vars.
type memStats struct {
	TotalAlloc    uint64  `json:"TotalAlloc"`
	Mallocs       uint64  `json:"Mallocs"`
	GCCPUFraction float64 `json:"GCCPUFraction"`
}

func (d *daemon) memStats(hc *http.Client) (memStats, error) {
	var v struct {
		Memstats memStats `json:"memstats"`
	}
	resp, err := hc.Get("http://" + d.addr + "/debug/vars")
	if err != nil {
		return v.Memstats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v.Memstats, err
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	base      http.RoundTripper
	req, resp atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.req.Add(r.ContentLength)
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.resp}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serveReq is one request of the seeded stream.
type serveReq struct {
	tenant int
	check  string // constraint name; "" = delta
	add    bool   // delta: add a noise transaction (else drop one)
}

// serveState is one run's daemon, clients and tenants.
type serveState struct {
	d       *daemon
	c       *client.Client
	hc      *http.Client
	ct      *countingTransport
	tenants []*tenantData
	noise   []*noisePool
	kept    map[string]witnessKeep // first witness per tenant/constraint
}

// noisePool tracks the noise transactions a tenant's deltas added:
// TxOut-only transactions to fresh owners, so no constraint's verdict
// depends on them.
type noisePool struct {
	next int64
	live []int64
	byID map[int64]*relation.Transaction
}

func setupServe(cfg runConfig, shape serveShape) (*serveState, error) {
	var tenants []*tenantData
	for i := 0; i < shape.tenants; i++ {
		dc := shape.data
		dc.Seed = cfg.seed*100 + int64(i)
		td, err := buildTenant(fmt.Sprintf("t%d", i), dc)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, td)
	}
	d, err := startDaemon(cfg.dcsatd)
	if err != nil {
		return nil, err
	}
	ct := &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	hc := &http.Client{Transport: ct}
	st := &serveState{d: d, c: client.New("http://"+d.addr, client.WithHTTPClient(hc)), hc: hc, ct: ct,
		tenants: tenants, kept: map[string]witnessKeep{}}
	for _, td := range tenants {
		resp, err := st.c.Register(context.Background(), td.req)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("serve: register %s: %w", td.name, err)
		}
		if resp.Pending != len(td.ds.DB.Pending) {
			d.stop()
			return nil, fmt.Errorf("serve: %s registered %d pending, sent %d", td.name, resp.Pending, len(td.ds.DB.Pending))
		}
		pool := &noisePool{next: 50_000_000, byID: map[int64]*relation.Transaction{}}
		for i, id := range resp.PendingIDs {
			pool.byID[id] = td.ds.DB.Pending[i]
		}
		st.noise = append(st.noise, pool)
	}
	return st, nil
}

// serveRun is one run's closed loop: the seeded request stream and
// what the recorded requests observed.
type serveRun struct {
	st    *serveState
	shape serveShape
	rng   *rand.Rand

	checks, mutates, rtts, engines, overheads []time.Duration
	agg                                       stageAgg
	failed, throttled, shed, backpressure     int64
}

// next draws the stream's next request.
func (r *serveRun) next() serveReq {
	q := serveReq{tenant: r.rng.Intn(len(r.st.tenants))}
	if r.rng.Float64() < r.shape.deltaShare {
		q.add = r.rng.Intn(2) == 0
	} else {
		names := r.st.tenants[q.tenant].names
		q.check = names[r.rng.Intn(len(names))]
	}
	return q
}

// step sends one request, checks a check's verdict against the plant
// and, when the step is recorded, notes its latency or its failure.
func (r *serveRun) step(m *meter) (int, error) {
	q := r.next()
	td := r.st.tenants[q.tenant]
	name := "serve.delta"
	if q.check != "" {
		name = "serve.check"
	}
	ctx, finish := m.root(name)
	defer finish()
	sent := time.Now()
	var (
		err       error
		undecided bool
		resp      *api.CheckResponse
	)
	if q.check != "" {
		resp, err = r.st.c.Check(ctx, td.name, &api.CheckRequest{Name: q.check, TimeoutMS: 2000})
	} else {
		err = r.st.delta(ctx, q)
	}
	rtt := time.Since(sent)
	if err == nil && resp != nil {
		m.cur.AddStage("dcsatd.engine", time.Duration(resp.Stats.DurationNS))
		undecided = resp.Undecided
		if !undecided && resp.Satisfied != td.want[q.check] {
			return 0, fmt.Errorf("%w: serve %s/%s satisfied=%v, plant says %v",
				errMismatch, td.name, q.check, resp.Satisfied, td.want[q.check])
		}
		if !undecided && !resp.Satisfied {
			r.st.keepWitness(q, resp.Witness)
		}
	}
	if !m.record {
		return 1, nil
	}
	if err != nil || undecided {
		r.failed++
		if r.failed <= 3 {
			warnf("serve request failed (undecided=%v): %v", undecided, err)
		}
		var ae *api.Error
		if errors.As(err, &ae) {
			switch ae.Code {
			case api.CodeThrottled:
				r.throttled++
			case api.CodeShed:
				r.shed++
			case api.CodeBackpressure:
				r.backpressure++
			}
		}
		return 1, nil
	}
	r.rtts = append(r.rtts, rtt)
	if resp != nil {
		engine := time.Duration(resp.Stats.DurationNS)
		r.checks = append(r.checks, rtt)
		r.engines = append(r.engines, engine)
		r.overheads = append(r.overheads, rtt-engine)
		r.agg.add(coreStats(resp.Stats))
	} else {
		r.mutates = append(r.mutates, rtt)
	}
	return 1, nil
}

// delta adds a noise transaction or drops one added earlier.
func (st *serveState) delta(ctx context.Context, r serveReq) error {
	td := st.tenants[r.tenant]
	p := st.noise[r.tenant]
	var op api.DeltaOp
	var tx *relation.Transaction
	if r.add || len(p.live) == 0 {
		p.next++
		tx = relation.NewTransaction(fmt.Sprintf("noise%d", p.next))
		tx.Add("TxOut", value.NewTuple(value.Int(p.next), value.Int(1), value.Str(fmt.Sprintf("NoisePk%d", p.next)), value.Int(1)))
		spec := wireTx(tx)
		op = api.DeltaOp{Op: api.OpAdd, Tx: &spec}
	} else {
		i := len(p.live) - 1
		op = api.DeltaOp{Op: api.OpDrop, ID: p.live[i]}
		p.live = p.live[:i]
	}
	resp, err := st.c.Deltas(ctx, td.name, &api.DeltaRequest{Ops: []api.DeltaOp{op}})
	if err != nil {
		return err
	}
	if resp.Failed > 0 {
		return fmt.Errorf("serve: delta %s failed: %s", op.Op, resp.Results[0].Error)
	}
	if op.Op == api.OpAdd {
		p.live = append(p.live, resp.Results[0].ID)
		p.byID[resp.Results[0].ID] = tx
	}
	return nil
}

// witnessKeep is a violated verdict kept for revalidation.
type witnessKeep struct {
	tenant  int
	name    string
	witness []int64
}

// keepWitness stores the first witness of each (tenant, constraint).
func (st *serveState) keepWitness(q serveReq, w []int64) {
	key := fmt.Sprintf("%d/%s", q.tenant, q.check)
	if _, ok := st.kept[key]; !ok {
		st.kept[key] = witnessKeep{tenant: q.tenant, name: q.check, witness: w}
	}
}

// baseline reads the daemon's runtime counters and every tenant's
// cache counters.
func (st *serveState) baseline() (memStats, []api.CacheStatus, error) {
	m, err := st.d.memStats(st.hc)
	if err != nil {
		return m, nil, err
	}
	var cache []api.CacheStatus
	for _, td := range st.tenants {
		s, err := st.c.Status(context.Background(), td.name)
		if err != nil {
			return m, nil, err
		}
		cache = append(cache, s.Cache)
	}
	return m, cache, nil
}

// revalidateServe rebuilds each tenant's database with every
// transaction it ever held and revalidates the kept witnesses.
func (st *serveState) revalidateServe() error {
	for ti, td := range st.tenants {
		p := st.noise[ti]
		var (
			txs []*relation.Transaction
			idx = map[int64]int{}
		)
		for id, tx := range p.byID {
			idx[id] = len(txs)
			txs = append(txs, tx)
		}
		db, err := possible.New(td.ds.DB.State, td.ds.DB.Constraints, txs)
		if err != nil {
			return fmt.Errorf("serve revalidation: %w", err)
		}
		var samples []witnessSample
		for _, k := range st.kept {
			if k.tenant != ti {
				continue
			}
			w := make([]int, len(k.witness))
			for i, id := range k.witness {
				j, ok := idx[id]
				if !ok {
					return fmt.Errorf("%w: serve %s/%s witness names unknown pending id %d", errMismatch, td.name, k.name, id)
				}
				w[i] = j
			}
			samples = append(samples, witnessSample{db: db, q: td.queries[k.name], witness: w, label: td.name + "/" + k.name})
		}
		if err := revalidate(samples); err != nil {
			return err
		}
	}
	return nil
}

func runServe(cfg runConfig) (*report, error) {
	shape := serveFull
	if cfg.tiny {
		shape = serveTiny
	}
	rounds := shape.setupRounds
	if cfg.trace {
		rounds = 1
	}
	// Set-up rounds: generate, start, register; every round but the
	// last stops its daemon again.
	var (
		st     *serveState
		setups []float64
	)
	for i := 0; i < rounds; i++ {
		if st != nil {
			st.d.stop()
		}
		runtime.GC()
		t := time.Now()
		s, err := setupServe(cfg, shape)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		st = s
	}
	defer st.d.stop()

	r := &serveRun{st: st, shape: shape, rng: rand.New(rand.NewSource(cfg.seed))}
	// The warm-up runs here rather than in measure, so the runtime,
	// cache and byte baselines are taken when it ends.
	warm := &meter{tree: newSpanTree()}
	for i := 0; i < shape.warmup; i++ {
		if _, err := r.step(warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	mem0, cache0, err := st.baseline()
	if err != nil {
		return nil, fmt.Errorf("serve: baseline: %w", err)
	}
	reqBytes0, respBytes0 := st.ct.req.Load(), st.ct.resp.Load()
	w, err := measure(cfg, 0, r.step)
	if err != nil {
		return nil, err
	}
	mem1, err := st.d.memStats(st.hc)
	if err != nil {
		return nil, fmt.Errorf("serve: memstats: %w", err)
	}
	reqBytes, respBytes := st.ct.req.Load()-reqBytes0, st.ct.resp.Load()-respBytes0
	if err := st.revalidateServe(); err != nil {
		return nil, err
	}
	afterWarm := float64(w.ops + w.tracedOps)
	out := map[string]float64{}
	if cfg.trace {
		zeroLayers(out)
		out["mutate_p50_us"] = us(pct(r.mutates, 0.5))
		out["mutate_p99_us"] = us(pct(r.mutates, 0.99))
		out["dcsatd.rtt_p50_us"] = us(pct(r.rtts, 0.5))
		out["dcsatd.engine_p50_us"] = us(pct(r.engines, 0.5))
		out["dcsatd.overhead_p50_us"] = us(pct(r.overheads, 0.5))
		out["dcsatd.overhead_p99_us"] = us(pct(r.overheads, 0.99))
		out["dcsatd.req_bytes"] = ratio(float64(reqBytes), afterWarm)
		out["dcsatd.resp_bytes"] = ratio(float64(respBytes), afterWarm)
		out["dcsatd.rejects.throttle"] = float64(r.throttled)
		out["dcsatd.rejects.shed"] = float64(r.shed)
		out["dcsatd.rejects.backpressure"] = float64(r.backpressure)
		r.agg.values(out)
		var comps, conflicts, evicted, invalidated float64
		for i, td := range st.tenants {
			s, err := st.c.Status(context.Background(), td.name)
			if err != nil {
				return nil, err
			}
			comps += float64(s.Components)
			conflicts += float64(s.ConflictPairs)
			evicted += float64(s.Cache.Evicted - cache0[i].Evicted)
			invalidated += float64(s.Cache.Invalidated - cache0[i].Invalidated)
		}
		out["monitor.components"] = comps
		out["monitor.conflict_pairs"] = conflicts
		out["reuse.cache_evicted"] = evicted
		out["reuse.cache_invalidated"] = invalidated
		out["runtime.alloc_kb_per_op"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024, afterWarm)
		out["runtime.allocs_per_op"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), afterWarm)
		out["runtime.gc_cpu_fraction"] = mem1.GCCPUFraction
		out["trace.overhead_ratio"] = w.traceOverhead()
		w.tree.render(treeOut)
	} else {
		out["setup_s"] = median(setups)
		out["ops_per_s"] = w.opsPerSec()
		checkLatencies(r.checks, out)
		out["peak_rss_mb"] = st.d.peakRSSMB()
	}
	return &report{attempted: w.ops, failed: r.failed, values: out}, nil
}

// coreStats carries the per-check cost the /v1 response reports into
// core.Stats, so the serve workload's per-layer metrics are computed as
// the in-process workloads' are. The wire has no stage durations and no
// duration of its own here (the engine time is reported separately),
// so the stage metrics read 0.
func coreStats(s api.CheckStats) core.Stats {
	return core.Stats{
		Cliques:          int(s.Cliques),
		WorldsEvaluated:  int(s.Worlds),
		Components:       s.Components,
		ComponentsCached: s.ComponentsCached,
		CacheHits:        s.CacheHits,
		CacheMisses:      s.CacheMisses,
		SweepReplays:     s.SweepReplays,
		PlanProbes:       s.PlanProbes,
	}
}

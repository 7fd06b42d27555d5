package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"blockchaindb/internal/core"
	"blockchaindb/internal/obs"
)

// meter is handed to every step of the measured loop. It says whether
// the step's latencies count (record) and whether the step runs under
// a trace (traced), and it lets a step leave the timed region for
// verification work.
type meter struct {
	record bool
	traced bool
	tree   *spanTree
	paused time.Duration
	cur    *obs.Span // the traced step's root span; nil when untraced
}

// root starts the step's root span when the step is traced; finish
// ends it and folds it into the span tree. Untraced steps get the
// plain context and a no-op finish, so the engine takes its no-trace
// path.
func (m *meter) root(name string) (context.Context, func()) {
	if !m.traced {
		return context.Background(), func() {}
	}
	ctx, sp := obs.StartTrace(context.Background(), name)
	m.cur = sp
	return ctx, func() {
		sp.End()
		m.tree.add(sp)
		m.cur = nil
	}
}

// untimed runs f outside the timed region.
func (m *meter) untimed(f func() error) error {
	t := time.Now()
	err := f()
	m.paused += time.Since(t)
	return err
}

// window is the accounting of one measured loop.
type window struct {
	ops          int64         // operations in recorded (untraced) slices
	active       time.Duration // active time of the recorded slices
	rates        []float64     // ops/s of each sub-window of an untraced run
	tracedOps    int64
	tracedActive time.Duration
	rt           runtimeDelta // over the recorded slices
	tree         *spanTree
}

// opsPerSec is the closed-loop throughput: the median over the
// sub-windows of an untraced run, so a burst of outside load in one
// second does not move it; over all recorded slices of a traced run.
func (w *window) opsPerSec() float64 {
	if len(w.rates) > 0 {
		return median(w.rates)
	}
	if w.active <= 0 {
		return 0
	}
	return float64(w.ops) / w.active.Seconds()
}

// rateWindows is how many sub-windows an untraced run's throughput is
// taken over.
const rateWindows = 10

// traceOverhead is untraced over traced throughput.
func (w *window) traceOverhead() float64 {
	if w.tracedOps == 0 || w.tracedActive <= 0 || w.active <= 0 {
		return 0
	}
	return w.opsPerSec() / (float64(w.tracedOps) / w.tracedActive.Seconds())
}

// traceSlices is how many slices a traced run alternates between
// untraced and traced; an even count gives both modes equal time.
const traceSlices = 8

// measure runs step warmup times unrecorded, then in a closed loop for
// cfg.seconds of active time. Untraced runs record one slice; traced
// runs alternate untraced (recorded) and traced slices, so the span
// tree and the per-layer numbers come from the same run while the
// latencies stay free of tracing cost. step returns the number of
// operations it completed.
func measure(cfg runConfig, warmup int, step func(m *meter) (int, error)) (*window, error) {
	w := &window{tree: newSpanTree()}
	warm := &meter{tree: w.tree}
	for i := 0; i < warmup; i++ {
		if _, err := step(warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	slices := 1
	if cfg.trace {
		slices = traceSlices
	}
	per := time.Duration(cfg.seconds * float64(time.Second) / float64(slices))
	for s := 0; s < slices; s++ {
		m := &meter{record: s%2 == 0, traced: s%2 == 1, tree: w.tree}
		var before runtimeSample
		if m.record {
			before = sampleRuntime()
		}
		start := time.Now()
		var ops, subOps int64
		sub := per / rateWindows
		subEnd := sub
		for time.Since(start)-m.paused < per {
			n, err := step(m)
			if err != nil {
				return nil, err
			}
			ops += int64(n)
			subOps += int64(n)
			if at := time.Since(start) - m.paused; !cfg.trace && at >= subEnd {
				w.rates = append(w.rates, float64(subOps)/(at-(subEnd-sub)).Seconds())
				subOps = 0
				subEnd = at + sub
			}
		}
		active := time.Since(start) - m.paused
		if m.record {
			w.rt.add(before, sampleRuntime())
			w.ops += ops
			w.active += active
		} else {
			w.tracedOps += ops
			w.tracedActive += active
		}
	}
	return w, nil
}

// runtimeSample is a snapshot of the Go runtime counters the
// runtime.* metrics are derived from.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[3].Value.Float64()
	}
	return out
}

// runtimeDelta accumulates runtime counters over recorded slices.
type runtimeDelta struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func (d *runtimeDelta) add(a, b runtimeSample) {
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocObjects += b.allocObjects - a.allocObjects
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
}

// values sets the runtime.* metrics, per operation of the window.
func (d *runtimeDelta) values(ops int64, out map[string]float64) {
	out["runtime.alloc_kb_per_op"] = ratio(float64(d.allocBytes)/1024, float64(ops))
	out["runtime.allocs_per_op"] = ratio(float64(d.allocObjects), float64(ops))
	out["runtime.gc_cpu_fraction"] = ratio(d.gcCPU, d.totalCPU)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct returns the p-quantile (0 < p <= 1) of xs by nearest rank.
func pct(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median of float64 values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeSetup runs build reps times and returns the median wall time in
// seconds and the last build's value. Garbage is collected before each
// repetition so one repetition's leftovers do not count towards the
// next one's time.
func timeSetup[T any](reps int, build func() (T, error)) (float64, T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		var zero T
		last = zero
		runtime.GC()
		t := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(t).Seconds())
		last = v
	}
	return median(times), last, nil
}

// p99Window is how many consecutive checks one p99 is taken over: the
// fewest that leave ten samples beyond the 99th percentile.
const p99Window = 1000

// checkLatencies sets check_p50_ms over all checks, and check_p99_ms
// as the median of the p99s of consecutive windows of p99Window checks
// (a short remainder joins the last window). On a machine whose
// processors are shared with other guests, one stolen burst fills a
// window's tail; the median over windows keeps it from setting the
// run's p99. A run with fewer than p99Window checks says so on stderr.
func checkLatencies(lat []time.Duration, out map[string]float64) {
	out["check_p50_ms"] = ms(pct(lat, 0.50))
	if len(lat) < p99Window {
		warnf("only %d checks measured; check_p99_ms has fewer than ten samples beyond it", len(lat))
		out["check_p99_ms"] = ms(pct(lat, 0.99))
		return
	}
	var p99s []float64
	for i := 0; i+p99Window <= len(lat); i += p99Window {
		end := i + p99Window
		if len(lat)-end < p99Window {
			end = len(lat)
		}
		p99s = append(p99s, ms(pct(lat[i:end], 0.99)))
	}
	out["check_p99_ms"] = median(p99s)
}

// stageAgg sums core.Stats over the checks of a window.
type stageAgg struct {
	n          int64
	prechecked int64
	sum        core.Stats
	// Serial checks only: the stage durations of a parallel check add
	// up worker time, not wall time, so the unattributed share is taken
	// over serial checks.
	serialDur, serialStages time.Duration
	// Parallel checks only: busy worker time over offered worker time.
	parBusy, parOffered time.Duration
}

func (a *stageAgg) add(s core.Stats) {
	a.n++
	if s.Prechecked {
		a.prechecked++
	}
	a.sum.Merge(s)
	stages := s.PrecheckDur + s.LiveFilterDur + s.ClosureDur + s.GraphBuildDur + s.CliqueDur + s.EvalDur
	if s.WorkersUsed > 1 {
		a.parBusy += s.WorkerBusy
		a.parOffered += s.Duration * time.Duration(s.WorkersUsed)
	} else {
		a.serialDur += s.Duration
		a.serialStages += stages
	}
}

// values sets the core.*, graph.*, possible.*, query.* and the
// per-check reuse.* metrics.
func (a *stageAgg) values(out map[string]float64) {
	n := float64(a.n)
	s := &a.sum
	perCheck := func(d time.Duration) float64 { return ratio(ms(d), n) }
	out["core.precheck_ms"] = perCheck(s.PrecheckDur)
	out["core.live_filter_ms"] = perCheck(s.LiveFilterDur)
	out["core.component_split_ms"] = perCheck(s.ClosureDur)
	out["core.fd_graph_build_ms"] = perCheck(s.GraphBuildDur)
	out["core.clique_enum_ms"] = perCheck(s.CliqueDur)
	out["core.world_eval_ms"] = perCheck(s.EvalDur)
	out["core.prechecked_ratio"] = ratio(float64(a.prechecked), n)
	out["core.covered_ratio"] = ratio(float64(s.ComponentsCovered), float64(s.Components))
	out["core.unattributed_share"] = 0
	if a.serialDur > 0 {
		out["core.unattributed_share"] = 1 - float64(a.serialStages)/float64(a.serialDur)
	}
	out["core.worker_util"] = ratio(float64(a.parBusy), float64(a.parOffered))
	out["graph.cliques_per_check"] = ratio(float64(s.Cliques), n)
	out["possible.worlds_incremental_per_check"] = ratio(float64(s.WorldsIncremental), n)
	out["possible.worlds_rebuilt_per_check"] = ratio(float64(s.WorldsRebuilt), n)
	out["possible.sharing_ratio"] = ratio(float64(s.WorldsIncremental), float64(s.WorldsIncremental+s.WorldsRebuilt))
	out["query.plan_probes_per_check"] = ratio(float64(s.PlanProbes), n)
	out["query.probes_per_world"] = ratio(float64(s.PlanProbes), float64(s.WorldsEvaluated))
	out["reuse.cache_hit_ratio"] = ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	out["reuse.components_replayed_ratio"] = ratio(float64(s.ComponentsCached), float64(s.Components))
	out["reuse.sweep_replays_per_check"] = ratio(float64(s.SweepReplays), n)
}

// zeroLayers sets every per-layer metric to 0, so a workload need only
// set the layers it runs.
func zeroLayers(out map[string]float64) {
	for _, s := range perLayerMetrics {
		out[s.name] = 0
	}
}

// spanTree aggregates span trees by path: how often each span ran, its
// total time and its self time (its duration minus its children's).
type spanTree struct {
	roots []*spanNode
}

type spanNode struct {
	name        string
	count       int64
	total, self time.Duration
	children    []*spanNode
}

func newSpanTree() *spanTree { return &spanTree{} }

func (t *spanTree) add(s *obs.Span) {
	t.roots = addSpan(t.roots, s)
}

func addSpan(nodes []*spanNode, s *obs.Span) []*spanNode {
	var n *spanNode
	for _, c := range nodes {
		if c.name == s.Name() {
			n = c
			break
		}
	}
	if n == nil {
		n = &spanNode{name: s.Name()}
		nodes = append(nodes, n)
	}
	d := s.Duration()
	n.count++
	n.total += d
	var kids time.Duration
	for _, c := range s.Children() {
		kids += c.Duration()
		n.children = addSpan(n.children, c)
	}
	// Parallel workers' children overlap in wall time; self time never
	// goes below zero.
	if self := d - kids; self > 0 {
		n.self += self
	}
	return nodes
}

// render writes the aggregated tree: per root operation, each span's
// mean total and self time and its share of the root.
func (t *spanTree) render(w io.Writer) {
	for _, r := range t.roots {
		fmt.Fprintf(w, "span tree %s (%d traced operations; mean per operation)\n", r.name, r.count)
		fmt.Fprintf(w, "  %-44s %8s %12s %12s %7s\n", "span", "count", "total", "self", "share")
		renderNode(w, r, "", r.total, r.count)
	}
}

func renderNode(w io.Writer, n *spanNode, lead string, rootTotal time.Duration, ops int64) {
	label := lead + n.name
	if pad := 44 - len([]rune(label)); pad > 0 {
		label += strings.Repeat(" ", pad)
	}
	fmt.Fprintf(w, "  %s %8d %12s %12s %6.1f%%\n", label, n.count,
		time.Duration(int64(n.total)/ops), time.Duration(int64(n.self)/ops),
		100*ratio(float64(n.total), float64(rootTotal)))
	for _, c := range n.children {
		renderNode(w, c, lead+"  ", rootTotal, ops)
	}
}

func warnf(format string, args ...any) {
	fmt.Fprintf(logOut, "perfbench: "+format+"\n", args...)
}

// Command perfbench is the repository's seeded benchmark. One run
// generates one workload's inputs from a seed, drives the engine only
// through its public entry points (core.Check, core.Monitor and the
// dcsatd /v1 client), checks every verdict, and prints one JSON object
// with the run's metrics as the last line of standard output.
//
//	go run . --workload fig6 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (see
// endToEndMetrics); with --trace 1 the same workload runs again with
// per-call tracing and prints the per-layer metrics (perLayerMetrics)
// after a rendering of the aggregated span tree. The workloads, their
// sizes and the per-layer → end-to-end map are described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names a metric and its unit. The lists below are the
// contract with BENCHMARK.json; perfbench_test.go checks they agree.
type metricSpec struct {
	name, unit string
}

// endToEndMetrics are printed by every untraced run of every workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"check_p50_ms", "ms"},
	{"check_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are printed by every traced run of every workload. A
// layer that a workload does not run reads 0 there (README.md lists
// which layers each workload exercises).
var perLayerMetrics = []metricSpec{
	{"mutate_p50_us", "us"},
	{"mutate_p99_us", "us"},

	{"dcsatd.rtt_p50_us", "us"},
	{"dcsatd.engine_p50_us", "us"},
	{"dcsatd.overhead_p50_us", "us"},
	{"dcsatd.overhead_p99_us", "us"},
	{"dcsatd.req_bytes", "B"},
	{"dcsatd.resp_bytes", "B"},
	{"dcsatd.rejects.throttle", "count"},
	{"dcsatd.rejects.shed", "count"},
	{"dcsatd.rejects.backpressure", "count"},

	{"monitor.add_p50_us", "us"},
	{"monitor.drop_p50_us", "us"},
	{"monitor.commit_p50_us", "us"},
	{"monitor.commit_p99_us", "us"},
	{"monitor.components", "count"},
	{"monitor.conflict_pairs", "count"},
	{"monitor.check_warm_p50_us", "us"},
	{"monitor.check_postcommit_p50_ms", "ms"},

	{"reuse.cache_hit_ratio", "ratio"},
	{"reuse.components_replayed_ratio", "ratio"},
	{"reuse.sweep_replays_per_check", "count"},
	{"reuse.cache_evicted", "count"},
	{"reuse.cache_invalidated", "count"},

	{"core.precheck_ms", "ms"},
	{"core.live_filter_ms", "ms"},
	{"core.component_split_ms", "ms"},
	{"core.fd_graph_build_ms", "ms"},
	{"core.clique_enum_ms", "ms"},
	{"core.world_eval_ms", "ms"},
	{"core.prechecked_ratio", "ratio"},
	{"core.covered_ratio", "ratio"},
	{"core.unattributed_share", "ratio"},
	{"core.worker_util", "ratio"},

	{"graph.cliques_per_check", "count"},
	{"possible.worlds_incremental_per_check", "count"},
	{"possible.worlds_rebuilt_per_check", "count"},
	{"possible.sharing_ratio", "ratio"},
	{"query.plan_probes_per_check", "count"},
	{"query.probes_per_world", "count"},

	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},

	{"trace.overhead_ratio", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input and the warm-up, for the package's own
	// tests.
	tiny bool
	// dcsatd is the path of the dcsatd binary the serve workload
	// launches.
	dcsatd string
}

// report is what a workload returns: the attempt counters plus the
// metric values by name. A verdict mismatch is returned as an error
// wrapping errMismatch, never folded into failed.
type report struct {
	attempted int64
	failed    int64
	values    map[string]float64
}

var errMismatch = errors.New("verdict mismatch")

// workloads maps a workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"fig6":       runFig6,
	"contention": runContention,
	"mempool":    runMempool,
	"serve":      runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig6, contention, mempool or serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 25, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		dcsatd  = flag.String("dcsatd", "", "dcsatd binary for the serve workload")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dcsatd: *dcsatd}
	res, err := execute(*name, run, cfg)
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and shapes its report into the printed
// result, with exactly the metric set the mode promises.
func execute(name string, run func(runConfig) (*report, error), cfg runConfig) (*result, error) {
	start := time.Now()
	rep, err := run(cfg)
	if rep == nil {
		rep = &report{}
	}
	warnf("%s seed=%d trace=%v done in %.1fs", name, cfg.seed, cfg.trace, time.Since(start).Seconds())
	specs := endToEndMetrics
	if cfg.trace {
		specs = perLayerMetrics
	}
	res := &result{
		Correct:   err == nil,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	if err != nil {
		return res, err
	}
	if rep.attempted < 1 {
		return res, fmt.Errorf("%s attempted no operation", name)
	}
	var missing []string
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if !ok {
			missing = append(missing, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("%s did not measure %v", name, missing)
	}
	return res, nil
}

// Diagnostics go to standard error; the traced run's span tree goes to
// standard output ahead of the result line. Tests silence both.
var (
	logOut  io.Writer = os.Stderr
	treeOut io.Writer = os.Stdout
)

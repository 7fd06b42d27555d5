package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"blockchaindb/internal/core"
)

// TestWorkloadsTiny runs every workload at a tiny size with two seeds,
// untraced and traced, and checks that each run verifies its verdicts
// and prints exactly the promised metrics.
func TestWorkloadsTiny(t *testing.T) {
	logOut, treeOut = io.Discard, io.Discard
	dcsatd := filepath.Join(t.TempDir(), "dcsatd")
	build := exec.Command("go", "build", "-o", dcsatd, "./cmd/dcsatd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dcsatd: %v\n%s", err, out)
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{seed: seed, seconds: 0.3, trace: trace, tiny: true, dcsatd: dcsatd}
				res, err := execute(name, workloads[name], cfg)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("%s seed %d trace %v: %+v", name, seed, trace, res)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
				}
			}
		}
	}
}

// TestContentionExhaustive cross-checks the contention generator's
// by-construction verdicts against the exhaustive ground truth.
func TestContentionExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		inst, err := buildRace(rng, raceTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, rq := range inst.queries {
			res, err := core.Check(context.Background(), inst.db, rq.q, core.Options{Algorithm: core.AlgoExhaustive})
			if err != nil {
				t.Fatalf("%s: %v", rq.label, err)
			}
			if res.Satisfied != rq.want {
				t.Fatalf("instance %d %s: exhaustive says satisfied=%v, generator %v", i, rq.label, res.Satisfied, rq.want)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the workloads and the
// metrics this program prints are the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []named, want []metricSpec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

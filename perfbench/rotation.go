package main

import (
	"fmt"
	"time"

	"blockchaindb/internal/core"
	"blockchaindb/internal/possible"
	"blockchaindb/internal/query"
	"blockchaindb/internal/relation"
)

// checkCell is one stateless check of a rotation, with the verdict its
// generator fixed by construction.
type checkCell struct {
	label string
	db    *possible.DB
	q     *query.Query
	opts  core.Options
	want  bool // satisfied
}

// runRotation is the closed loop of the stateless workloads (fig6 and
// contention): build the cells (timed as set-up), then run core.Check
// over them in order, round after round, checking every verdict and
// keeping each violated cell's first witness for revalidation. One
// round is the warm-up.
func runRotation(cfg runConfig, name string, build func() ([]checkCell, error)) (*report, error) {
	reps := 9
	if cfg.trace {
		reps = 1
	}
	setup, cells, err := timeSetup(reps, build)
	if err != nil {
		return nil, err
	}
	var (
		latencies []time.Duration
		agg       stageAgg
		samples   []witnessSample
		next      int
		sampled   = make(map[int]bool)
	)
	step := func(m *meter) (int, error) {
		i := next % len(cells)
		next++
		c := cells[i]
		ctx, finish := m.root(name + ".check")
		t := time.Now()
		res, err := core.Check(ctx, c.db, c.q, c.opts)
		d := time.Since(t)
		finish()
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", name, c.label, err)
		}
		if res.Satisfied != c.want {
			return 0, fmt.Errorf("%w: %s %s satisfied=%v, generator says %v", errMismatch, name, c.label, res.Satisfied, c.want)
		}
		if m.record {
			latencies = append(latencies, d)
			agg.add(res.Stats)
			if !res.Satisfied && !sampled[i] {
				sampled[i] = true
				samples = append(samples, witnessSample{db: c.db, q: c.q, witness: res.Witness, label: c.label})
			}
		}
		return 1, nil
	}
	w, err := measure(cfg, len(cells), step)
	if err != nil {
		return nil, err
	}
	if err := revalidate(samples); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if cfg.trace {
		zeroLayers(out)
		agg.values(out)
		w.rt.values(w.ops, out)
		out["trace.overhead_ratio"] = w.traceOverhead()
		w.tree.render(treeOut)
	} else {
		out["setup_s"] = setup
		out["ops_per_s"] = w.opsPerSec()
		checkLatencies(latencies, out)
		out["peak_rss_mb"] = peakRSSMB()
	}
	return &report{attempted: w.ops, values: out}, nil
}

// witnessSample is a violated verdict kept for revalidation after the
// timed region.
type witnessSample struct {
	db      *possible.DB
	q       *query.Query
	witness []int
	label   string
}

// revalidate checks each sampled witness: appending exactly the
// witness transactions must be reachable (Proposition 1), and the
// query must hold in the world they form.
func revalidate(samples []witnessSample) error {
	for _, s := range samples {
		if !s.db.IsReachable(s.witness) {
			return fmt.Errorf("%w: %s witness %v is not a reachable world", errMismatch, s.label, s.witness)
		}
		txs := make([]*relation.Transaction, len(s.witness))
		for i, idx := range s.witness {
			txs[i] = s.db.Pending[idx]
		}
		holds, err := query.Eval(s.q, relation.NewOverlay(s.db.State, txs...))
		if err != nil {
			return fmt.Errorf("%s witness evaluation: %w", s.label, err)
		}
		if !holds {
			return fmt.Errorf("%w: %s query is false in its witness world %v", errMismatch, s.label, s.witness)
		}
	}
	return nil
}

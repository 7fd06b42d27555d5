package main

import (
	"fmt"
	"math/rand"

	"blockchaindb/internal/core"
	"blockchaindb/internal/workload"
)

// fig6Datasets is how many D200-analogue datasets one run checks: the
// cost of a cell depends on where the generator put the plants, so a
// run averages over a few datasets rather than riding on one.
const fig6Datasets = 3

// buildFig6 generates the D200-analogue datasets (workload.DefaultConfig)
// and the rotation: qs, qp2–qp6, qr1–qr6 and qa, each satisfied and
// violated, by NaiveDCSat and OptDCSat; qa is not connected, so as in
// the paper only NaiveDCSat runs it. Violated cells appear twice per
// round: with satisfied and violated cells at one half each, the median
// latency would sit in the gap between the two modes and jump between
// them from run to run.
func buildFig6(seed int64, tiny bool) ([]checkCell, error) {
	var cells []checkCell
	for k := int64(0); k < fig6Datasets; k++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed*fig6Datasets + k
		if tiny {
			cfg.Blocks, cfg.TxPerBlock, cfg.Users = 20, 6, 40
			cfg.PendingBlocks, cfg.PendingTxPerBlock, cfg.Contradictions = 4, 8, 4
		}
		c, err := fig6Cells(workload.Generate(cfg))
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) {
		cells[i], cells[j] = cells[j], cells[i]
	})
	return cells, nil
}

// fig6Cells lists one dataset's cells.
func fig6Cells(ds *workload.Dataset) ([]checkCell, error) {
	type family struct {
		kind  workload.QueryKind
		sizes []int
	}
	families := []family{
		{workload.QuerySimple, []int{0}},
		{workload.QueryPath, []int{2, 3, 4, 5, 6}},
		{workload.QueryStar, []int{1, 2, 3, 4, 5, 6}},
		{workload.QueryAggregate, []int{0}},
	}
	var cells []checkCell
	for _, f := range families {
		for _, size := range f.sizes {
			for _, sat := range []bool{true, false} {
				q, err := ds.Query(f.kind, size, sat)
				if err != nil {
					return nil, err
				}
				label := f.kind.String()
				if size > 0 {
					label += fmt.Sprint(size)
				}
				for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoOpt} {
					if algo == core.AlgoOpt && !q.IsConnected() {
						continue
					}
					c := checkCell{label: fmt.Sprintf("%s/%v", label, algo), db: ds.DB, q: q,
						opts: core.Options{Algorithm: algo}, want: sat}
					cells = append(cells, c)
					if !sat {
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells, nil
}

func runFig6(cfg runConfig) (*report, error) {
	return runRotation(cfg, "fig6", func() ([]checkCell, error) { return buildFig6(cfg.seed, cfg.tiny) })
}

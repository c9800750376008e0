package main

import (
	"context"
	"fmt"

	"mqo"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// optBatch is one batch opt_scaleup optimizes, with the catalog holding
// the statistics it is optimized against.
type optBatch struct {
	name    string
	cat     *mqo.Catalog
	queries []*mqo.Query
}

// optBatchNames lists opt_scaleup's batches: the paper's batched TPC-D
// queries BQ1..BQ5 (Figure 6), the PSP scale-up queries CQ1..CQ5 (Figure
// 9), and BQ5 repeated for independent tenants, the shape a service makes
// when it coalesces unrelated sessions.
func optBatchNames(sc scale) []string {
	var names []string
	for i := 1; i <= 5; i++ {
		names = append(names, fmt.Sprintf("BQ%d", i))
	}
	for i := 1; i <= 5; i++ {
		names = append(names, fmt.Sprintf("CQ%d", i))
	}
	return append(names, fmt.Sprintf("BQ5x%d", sc.tenants))
}

func optBatches(sc scale) []optBatch {
	var out []optBatch
	for i := 1; i <= 5; i++ {
		out = append(out, optBatch{cat: tpcd.Catalog(1), queries: tpcd.BatchQueries(i)})
	}
	for i := 1; i <= 5; i++ {
		out = append(out, optBatch{cat: psp.Catalog(1), queries: psp.CQ(i)})
	}
	out = append(out, optBatch{cat: tpcd.TenantCatalog(1, sc.tenants), queries: tpcd.TenantBatch(5, sc.tenants)})
	for i, name := range optBatchNames(sc) {
		out[i].name = name
	}
	return out
}

// runOpt is opt_scaleup: optimization only, at SF 1 statistics, every
// batch under every algorithm through Optimizer.OptimizeBatch with the
// plan cache off. There are no rows to check, so an operation is correct
// when it returns a plan, costs no more than Volcano's plan for the batch,
// and costs exactly what it cost the first time.
func runOpt(ctx context.Context, e *runEnv, m *measure) (*opLog, error) {
	algs := mqo.Algorithms()
	type session struct {
		batches []optBatch
		opts    []*mqo.Optimizer
		steps   []*stepper
	}
	sums := map[string]float64{}
	s, setupS, err := medianSetup(e.sc.setupReps, func() (session, error) {
		s := session{batches: optBatches(e.sc)}
		for _, b := range s.batches {
			opt, err := mqo.Open(b.cat)
			if err != nil {
				return s, err
			}
			s.opts = append(s.opts, opt)
			s.steps = append(s.steps, &stepper{cat: b.cat, model: opt.Model(), tr: e.tr, sums: sums})
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if len(e.in.OptOrder) != len(s.batches)*len(algs) {
		return nil, fmt.Errorf("opt order has %d cells, want %d", len(e.in.OptOrder), len(s.batches)*len(algs))
	}

	costs := make([]float64, len(e.in.OptOrder)) // first cost seen per cell, batch-major
	pass := func(traced bool, log *opLog) {
		e.calibrate()
		for _, cell := range e.in.OptOrder {
			bi, alg := cell/len(algs), algs[cell%len(algs)]
			var res *mqo.Result
			d, alloc, err := timedOp(ctx, func(ctx context.Context) (err error) {
				if traced {
					var out *stepOut
					if out, err = s.steps[bi].run(ctx, "", s.batches[bi].queries, alg, nil); err == nil {
						res = out.res
					}
					return err
				}
				res, err = s.opts[bi].OptimizeBatch(ctx, s.batches[bi].queries, alg)
				return err
			})
			ok := err == nil && res.Plan != nil
			if ok {
				if costs[cell] == 0 {
					costs[cell] = float64(res.Cost)
				}
				ok = float64(res.Cost) == costs[cell]
			}
			log.allocated += alloc
			log.record(d, ok, opTimeout)
		}
		log.endPass()
	}

	log, tlog := e.measurePasses(m, setupS, 0, pass)

	// No heuristic may cost more than Volcano on the same batch.
	var ratios []float64
	for bi := range s.batches {
		volcano := costs[bi*len(algs)]
		for ai := 1; ai < len(algs); ai++ {
			r := costs[bi*len(algs)+ai] / volcano
			if !(r > 0 && r <= 1+1e-9) {
				log.failed++
			}
			ratios = append(ratios, r)
		}
	}
	m.set("plan_cost_ratio", geomean(ratios), len(ratios))
	if !e.trace {
		return log, nil
	}
	setTraceMetrics(m, e.tr, sums, tlog, log)
	return log, nil
}

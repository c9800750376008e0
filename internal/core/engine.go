package core

import (
	"context"
	"sync/atomic"

	"mqo/internal/cost"
	"mqo/internal/physical"
)

// searchEngine is the shared parallel search substrate the optimization
// algorithms run on. It owns the three phases every DAG search repeats:
//
//	candidate enumeration → overlay-parallel evaluation → deterministic
//	pick/commit
//
// Evaluation fans a wave of what-if candidates out over per-worker
// physical.CostView overlays of the shared DAG (acquired from the DAG's
// view pool), so the shared costing state stays read-only for the whole
// wave; commits happen only from the coordinating goroutine, between
// waves. The greedy loops, Volcano-RU's order passes and the sharability
// analysis all sit on this machinery instead of owning private loops over
// shared DAG state.
//
// Determinism contract: parallelism is a wall-clock knob, never a plan
// knob. Every worker count returns byte-identical results — evaluation
// waves return results in input order regardless of scheduling, each wave
// commits at most one pick, chosen by benefit first, then smaller
// topological number, and which candidates a wave evaluates depends only
// on earlier waves' results.
type searchEngine struct {
	pd *physical.DAG
	// opt carries the §6.3 ablation switches; DisableIncremental forces
	// from-scratch recosting on the shared DAG and therefore serial waves.
	opt GreedyOptions
	// workers is the resolved wave fan-out (resolveWorkers already applied).
	workers int
	// views are the per-worker overlays, views[w] owned by worker w for the
	// duration of a wave. Acquired from the DAG's pool, returned on close.
	views []*physical.CostView

	// recomps counts benefit recomputations; workers update it atomically
	// and the final value is copied into Stats.BenefitRecomputations.
	recomps atomic.Int64
	// waves counts non-empty evaluation waves (coordinator-only).
	waves int64
}

// newSearchEngine builds an engine for one optimization run whose widest
// evaluation wave holds waveItems candidates. That sizes the auto-tune work
// estimate (waveItems × DAG nodes, the cost of one full wave), except that a
// wave no wider than speculationWidth never pays for waking workers
// (benefitCrossover) and runs serially whatever the DAG's size.
func newSearchEngine(pd *physical.DAG, opts Options, waveItems int) *searchEngine {
	units := waveItems * len(pd.Nodes)
	if waveItems <= speculationWidth {
		units = 0
	}
	w := resolveWorkers(benefitCrossover, opts.Parallelism, units)
	if opts.Greedy.DisableIncremental {
		// §6.3 ablation: from-scratch recosting mutates the shared DAG, so
		// it cannot fan out.
		w = 1
	}
	e := &searchEngine{pd: pd, opt: opts.Greedy, workers: w}
	if !opts.Greedy.DisableIncremental {
		e.views = make([]*physical.CostView, w)
		for i := range e.views {
			e.views[i] = pd.AcquireView()
		}
	}
	return e
}

// close drains every view's propagation instrumentation into the DAG's
// Figure 10 counters and returns the views to the DAG's pool. Call exactly
// once, from the coordinating goroutine, after the last wave — on error
// paths too, so cancelled runs leak neither views nor counters.
func (e *searchEngine) close() {
	for _, v := range e.views {
		e.pd.AddCounters(v.DrainCounters())
		e.pd.ReleaseView(v)
	}
	e.views = nil
}

// benefitOn computes one candidate's benefit on the given view against the
// supplied bestcost(Q, S) baseline.
func (e *searchEngine) benefitOn(v *physical.CostView, base cost.Cost, n *physical.Node) cost.Cost {
	e.recomps.Add(1)
	if e.opt.DisableIncremental {
		// From-scratch recosting on the shared DAG (serial by construction —
		// BestCostWith mutates the DAG).
		return base - e.pd.BestCostWith(append(e.pd.MaterializedSet(), n))
	}
	return v.WhatIfBenefit(n)
}

// evalWave computes the benefits of all candidates against the DAG's
// current state and returns them in input order. The shared DAG is treated
// as read-only for the duration of the wave; results do not depend on the
// worker count or on goroutine scheduling. A cancelled context makes
// workers stop early and returns ctx.Err().
func (e *searchEngine) evalWave(ctx context.Context, nodes []*physical.Node) ([]cost.Cost, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	e.waves++
	base := e.pd.TotalCost()
	out := make([]cost.Cost, len(nodes))
	err := parallelFor(ctx, e.workers, len(nodes), func(w, i int) {
		var v *physical.CostView
		if e.views != nil {
			v = e.views[w]
		}
		out[i] = e.benefitOn(v, base, nodes[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// commit materializes n on the shared DAG (incremental Figure 5 update).
// Coordinator-only: never call while a wave is in flight.
func (e *searchEngine) commit(n *physical.Node) {
	e.pd.SetMaterialized(n, true)
}

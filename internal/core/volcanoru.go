package core

import (
	"context"

	"mqo/internal/physical"
)

// optimizeVolcanoRU implements the paper's Figure 3: optimize the queries
// in sequence, tracking nodes of earlier best plans as reuse candidates
// (materializing a candidate as soon as one further use would pay for it),
// then run Volcano-SH over the combined DAG-structured plan for the final
// materialization decisions. Both the given and the reverse query order are
// tried and the cheaper result returned (§3.3), unless opt.RUForwardOnly.
//
// Each order pass runs on a private physical.CostView overlay of the shared
// DAG — its candidate materializations and the cost updates they trigger
// live entirely in the view — so the two passes are independent and run
// concurrently when the substrate fans out (Options.Parallelism). The
// shared DAG sees no writes at all until the winning order's materialized
// set commits at the end; error and cancellation paths therefore leave the
// DAG's costing state exactly as Optimize's entry reset left it, with
// nothing to restore.
func optimizeVolcanoRU(ctx context.Context, pd *physical.DAG, opt Options) (*Result, error) {
	n := len(pd.QueryRoots)
	forward := make([]int, n)
	for i := range forward {
		forward[i] = i
	}
	orders := [][]int{forward}
	if !opt.RUForwardOnly && n > 1 {
		reverse := make([]int, n)
		for i := range reverse {
			reverse[i] = n - 1 - i
		}
		orders = append(orders, reverse)
	}

	workers := 1
	if len(orders) > 1 {
		workers = resolveWorkers(ruCrossover, opt.Parallelism, len(pd.Nodes)*n)
	}
	results := make([]*Result, len(orders))
	errs := make([]error, len(orders))
	views := make([]*physical.CostView, len(orders))
	for i := range views {
		views[i] = pd.AcquireView()
	}
	_ = parallelFor(ctx, workers, len(orders), func(w, i int) {
		results[i], errs[i] = runRUOrder(ctx, pd, views[i], orders[i])
	})
	// Drain the views' propagation instrumentation into the Figure 10
	// counters and pool them again; both happen after the join, from this
	// goroutine only, so the totals are deterministic.
	for _, v := range views {
		pd.AddCounters(v.DrainCounters())
		pd.ReleaseView(v)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Deterministic winner: strictly cheaper only, so the forward order
	// wins ties regardless of which pass finished first.
	best := results[0]
	for _, r := range results[1:] {
		if r.Cost < best.Cost {
			best = r
		}
	}
	// The only shared-state write of the whole algorithm: leave the DAG
	// costing state reflecting the returned result.
	for _, m := range best.Materialized {
		pd.SetMaterialized(m, true)
	}
	return best, nil
}

// runRUOrder runs one Volcano-RU pass over the queries in the given order,
// entirely on the supplied CostView (which must be pristine over a DAG with
// an empty materialized set). The shared DAG is read, never written.
func runRUOrder(ctx context.Context, pd *physical.DAG, v *physical.CostView, order []int) (*Result, error) {
	plan := physical.NewPlan()
	count := make([]int, len(pd.Nodes)) // by Node.Topo
	queryPlans := make([]*physical.PlanNode, len(pd.QueryRoots))

	var promotions int64
	for _, qi := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qn := pd.QueryRoots[qi]
		// Optimize Q_i assuming the current candidate set N is
		// materialized; nodes shared with earlier plans keep their cached
		// choice, new nodes are costed under the view's current state.
		pn := pd.ExtractIntoView(v, plan, qn)
		queryPlans[qi] = pn
		// Count uses and promote nodes worth materializing if used once
		// more: cost + matcost + count·reuse < (count+1)·cost.
		pn.Walk(func(p *physical.PlanNode) {
			node := p.N
			if node.LG.ParamDep || node == pd.Root {
				return
			}
			count[node.Topo]++
			if v.Materialized(node) {
				return
			}
			c := float64(count[node.Topo])
			nc := v.CostOf(node)
			if nc+node.MatCost+c*node.ReuseSeq < (c+1)*nc {
				v.SetMaterialized(node, true)
				promotions++
			}
		})
	}

	// Combine P1..Pk under the batch root and let Volcano-SH make the
	// final materialization decisions.
	batch := pd.Root.Exprs[0]
	root := &physical.PlanNode{N: pd.Root, E: batch, Children: make([]*physical.PlanNode, len(queryPlans))}
	for i, qp := range queryPlans {
		qp.NumParents++
		root.Children[i] = qp
	}
	plan.Root = root
	plan.ByNode[pd.Root] = root

	total, mats, err := volcanoSHOnPlan(ctx, pd, v, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Cost: total, Plan: plan, Materialized: mats}
	res.Stats.RUPromotions = promotions
	return res, nil
}

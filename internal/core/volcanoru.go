package core

import (
	"context"
	"slices"

	"mqo/internal/physical"
)

// optimizeVolcanoRU implements the paper's Figure 3: optimize the queries
// in sequence, tracking nodes of earlier best plans as reuse candidates
// (materializing a candidate as soon as one further use would pay for it),
// then run Volcano-SH over the combined DAG-structured plan for the final
// materialization decisions. Both the given and the reverse query order are
// tried and the cheaper result returned (§3.3).
//
// Each order pass runs on the DAG between Mark and Rollback: its candidate
// materializations and the cost updates they trigger are rolled back after
// the pass, on error and cancellation too, so the DAG's costing state is
// Optimize's entry state until the winning order's materialized set commits
// at the end.
func optimizeVolcanoRU(ctx context.Context, pd *physical.DAG) (*Result, error) {
	n := len(pd.QueryRoots)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	best, err := runRUOrder(ctx, pd, order)
	if err == nil && n > 1 {
		slices.Reverse(order)
		var rev *Result
		rev, err = runRUOrder(ctx, pd, order)
		// Strictly cheaper only, so the forward order wins ties.
		if err == nil && rev.Cost < best.Cost {
			best = rev
		}
	}
	if err != nil {
		return nil, err
	}
	// Leave the costing state reflecting the returned result.
	for _, m := range best.Materialized {
		pd.SetMaterialized(m, true)
	}
	return best, nil
}

// runRUOrder runs one Volcano-RU pass over the queries in the given order
// on a DAG with an empty materialized set, and rolls the pass back.
func runRUOrder(ctx context.Context, pd *physical.DAG, order []int) (*Result, error) {
	pd.Mark()
	defer pd.Rollback()
	plan := physical.NewPlan()
	var count []int // by PlanNode.Index, grown with the plan
	queryPlans := make([]*physical.PlanNode, len(pd.QueryRoots))

	var promotions int64
	for _, qi := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qn := pd.QueryRoots[qi]
		// Optimize Q_i assuming the current candidate set N is
		// materialized; nodes shared with earlier plans keep their cached
		// choice, new nodes are costed under the pass's current state.
		pn := pd.ExtractInto(plan, qn)
		queryPlans[qi] = pn
		count = append(count, make([]int, len(plan.ByNode)-len(count))...)
		// Count uses and promote nodes worth materializing if used once
		// more: cost + matcost + count·reuse < (count+1)·cost.
		pn.Walk(func(p *physical.PlanNode) {
			node := p.N
			if node.LG.ParamDep || node == pd.Root {
				return
			}
			count[p.Index]++
			if pd.Materialized(node) {
				return
			}
			c := float64(count[p.Index])
			nc := pd.CostOf(node)
			if nc+node.MatCost+c*node.ReuseSeq < (c+1)*nc {
				pd.SetMaterialized(node, true)
				promotions++
			}
		})
	}

	// Combine P1..Pk under the batch root and let Volcano-SH make the
	// final materialization decisions.
	batch := pd.Root.Exprs[0]
	root := &physical.PlanNode{N: pd.Root, E: batch, Children: make([]*physical.PlanNode, len(queryPlans)), Index: int32(len(plan.ByNode))}
	for i, qp := range queryPlans {
		qp.NumParents++
		root.Children[i] = qp
	}
	plan.Root = root
	plan.ByNode[pd.Root] = root

	total, mats, err := volcanoSHOnPlan(ctx, pd, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Cost: total, Plan: plan, Materialized: mats}
	res.Stats.RUPromotions = promotions
	return res, nil
}

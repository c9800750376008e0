package core

import (
	"context"
	"slices"

	"mqo/internal/cost"
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
	s := scratchOf(pd)
	n := len(pd.QueryRoots)
	s.order = extend(s.order[:0], n)
	for i := range s.order {
		s.order[i] = i
	}
	best, err := runRUOrder(ctx, pd, s.order)
	if err == nil && n > 1 {
		slices.Reverse(s.order)
		var rev ruPass
		rev, err = runRUOrder(ctx, pd, s.order)
		// Strictly cheaper only, so the forward order wins ties.
		if err == nil && rev.cost < best.cost {
			best = rev
		}
	}
	if err != nil {
		return nil, err
	}
	// Leave the costing state reflecting the returned result.
	for _, m := range best.mats {
		pd.SetMaterialized(m, true)
	}
	res := &Result{Cost: best.cost, Plan: best.plan.Seal(), Materialized: best.mats}
	res.Stats.RUPromotions = best.promotions
	return res, nil
}

// ruPass is what one Volcano-RU order pass found: its plan's cost, the plan,
// its materialized set and the reuse promotions it committed. The draft is
// the DAG's: it stays readable until the second draft after it (NewDraft).
type ruPass struct {
	cost       cost.Cost
	plan       *physical.Draft
	mats       []*physical.Node
	promotions int64
}

// runRUOrder runs one Volcano-RU pass over the queries in the given order
// on a DAG with an empty materialized set, and rolls the pass back.
func runRUOrder(ctx context.Context, pd *physical.DAG, order []int) (ruPass, error) {
	pd.Mark()
	defer pd.Rollback()
	s := scratchOf(pd)
	plan := pd.NewDraft()
	count := s.count[:0] // by PlanNode.Index, grown with the plan
	queryPlans := extend(s.queryPlans[:0], len(pd.QueryRoots))
	s.queryPlans = queryPlans

	var promotions int64
	for _, qi := range order {
		if err := ctx.Err(); err != nil {
			return ruPass{}, err
		}
		qn := pd.QueryRoots[qi]
		// Optimize Q_i assuming the current candidate set N is
		// materialized; nodes shared with earlier plans keep their cached
		// choice, new nodes are costed under the pass's current state.
		pn := plan.Extract(qn)
		queryPlans[qi] = pn
		count = extend(count, plan.Len())
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
	s.count = count

	// Combine P1..Pk under the batch root and let Volcano-SH make the
	// final materialization decisions.
	root := plan.Add(pd.Root, pd.Root.Exprs[0], len(queryPlans))
	for i, qp := range queryPlans {
		qp.NumParents++
		root.Children[i] = qp
	}
	plan.Root = root

	total, mats, err := volcanoSHOnPlan(ctx, pd, plan)
	if err != nil {
		return ruPass{}, err
	}
	return ruPass{cost: total, plan: plan, mats: mats, promotions: promotions}, nil
}

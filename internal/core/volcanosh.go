package core

import (
	"context"
	"sort"

	"mqo/internal/cost"
	"mqo/internal/physical"
)

// optimizeVolcanoSH implements the paper's Figure 2: run basic Volcano,
// take the consolidated best plan (a DAG because of shared choices), run a
// subsumption prepass, then decide bottom-up which nodes to materialize
// using the numuses⁻ underestimate, and undo unused subsumption
// derivations. The DAG's costing state must be Optimize's entry state.
func optimizeVolcanoSH(ctx context.Context, pd *physical.DAG) (*Result, error) {
	plan := physical.NewPlan()
	plan.Root = pd.ExtractInto(plan, pd.Root)
	total, mats, err := volcanoSHOnPlan(ctx, pd, nil, plan)
	if err != nil {
		return nil, err
	}
	return &Result{Cost: total, Plan: plan, Materialized: mats}, nil
}

// volcanoSHOnPlan runs the Volcano-SH materialization pass over an already
// extracted consolidated plan (also the second phase of Volcano-RU). It
// rewrites the plan in place (subsumption switches, Mat marks, Mats list)
// and returns the total cost and materialized set. The optional CostView
// is the overlay the plan was extracted under (Volcano-RU passes the view
// its order pass ran in); it is consulted only when the subsumption
// prepass extracts additional child plans, and the pass reads — never
// writes — the DAG.
func volcanoSHOnPlan(ctx context.Context, pd *physical.DAG, v *physical.CostView, plan *physical.Plan) (cost.Cost, []*physical.Node, error) {
	sh := &shState{
		pd:        pd,
		v:         v,
		plan:      plan,
		costOf:    make([]cost.Cost, len(pd.Nodes)),
		mat:       make([]bool, len(pd.Nodes)),
		origExpr:  map[*physical.PlanNode]*physical.PExpr{},
		origChild: map[*physical.PlanNode][]*physical.PlanNode{},
	}
	sh.prepass()
	// The decisions and the undo step interact: undoing a subsumption
	// switch removes uses that justified other materializations, so we
	// re-decide after every undo until the plan is stable. Each round can
	// only shrink the set of active switches, so this terminates.
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		clear(sh.mat)
		sh.decide()
		if !sh.undo() {
			break
		}
	}
	total, mats := sh.finish()
	return total, mats, nil
}

type shState struct {
	pd   *physical.DAG
	v    *physical.CostView // overlay the plan was extracted under (may be nil)
	plan *physical.Plan

	// costOf and mat are by the Topo of a plan node's physical node: a plan
	// has one plan node per physical node (Plan.ByNode).
	costOf    []cost.Cost
	mat       []bool
	origExpr  map[*physical.PlanNode]*physical.PExpr
	origChild map[*physical.PlanNode][]*physical.PlanNode
}

// nodes returns the plan nodes reachable from the root in topological
// order (children before parents).
func (sh *shState) nodes() []*physical.PlanNode {
	var out []*physical.PlanNode
	sh.plan.Root.Walk(func(pn *physical.PlanNode) { out = append(out, pn) })
	sort.Slice(out, func(i, j int) bool { return out[i].N.Topo < out[j].N.Topo })
	return out
}

// allNodes returns every plan node ever extracted (including original
// derivations switched out by the prepass, whose costs the savings
// computation still needs), in topological order.
func (sh *shState) allNodes() []*physical.PlanNode {
	out := make([]*physical.PlanNode, 0, len(sh.plan.ByNode))
	for _, pn := range sh.plan.ByNode {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N.Topo < out[j].N.Topo })
	return out
}

// prepass switches applicable subsumption derivations into the plan (paper
// §3.2: "we perform a pre-pass, checking for subsumption amongst nodes in
// the plan produced by the basic Volcano optimization algorithm"). A
// derivation is applicable when each of its inputs is either a node already
// present in the plan (so sharing is possible) or a subsumption-introduced
// node (disjunction / group-by-union) worth introducing.
func (sh *shState) prepass() {
	present := map[int32]bool{} // logical group IDs in the plan
	sh.plan.Root.Walk(func(pn *physical.PlanNode) { present[int32(pn.N.LG.ID)] = true })

	for _, pn := range sh.nodes() {
		if pn.E.LE == nil || pn.E.LE.Subsumption {
			continue
		}
		for _, alt := range pn.N.Exprs {
			if alt.LE == nil || !alt.LE.Subsumption {
				continue
			}
			applicable := true
			for _, c := range alt.Children {
				if !present[int32(c.LG.ID)] && !c.LG.SubsumpNode {
					applicable = false
					break
				}
			}
			if !applicable {
				continue
			}
			sh.origExpr[pn] = pn.E
			sh.origChild[pn] = pn.Children
			pn.E = alt
			pn.Children = make([]*physical.PlanNode, len(alt.Children))
			for i, c := range alt.Children {
				cp := sh.pd.ExtractIntoView(sh.v, sh.plan, c)
				cp.NumParents++
				pn.Children[i] = cp
				present[int32(c.LG.ID)] = true
			}
			break
		}
	}
	// Parent counts changed by the switches: recompute from scratch.
	sh.recountParents()
}

// recountParents recomputes NumParents over the current plan DAG.
func (sh *shState) recountParents() {
	counts := make([]int, len(sh.pd.Nodes))
	sh.plan.Root.Walk(func(pn *physical.PlanNode) {
		for _, c := range pn.Children {
			counts[c.N.Topo]++
		}
	})
	sh.plan.Root.Walk(func(pn *physical.PlanNode) { pn.NumParents = counts[pn.N.Topo] })
}

// numUses is the paper's numuses⁻ underestimate: the number of parent links
// in the consolidated plan, with nested-query invocation counts multiplying
// the link from an Invoke parent (§5).
func (sh *shState) numUses() []float64 {
	uses := make([]float64, len(sh.pd.Nodes))
	sh.plan.Root.Walk(func(pn *physical.PlanNode) {
		for _, c := range pn.Children {
			uses[c.N.Topo] += pn.E.Weight()
		}
	})
	uses[sh.plan.Root.N.Topo] = 1
	return uses
}

// exprCost evaluates one plan alternative: operator cost plus child
// contributions, where materialized children contribute their reuse cost.
func (sh *shState) exprCost(e *physical.PExpr, children []*physical.PlanNode) cost.Cost {
	total := e.OpCost
	for _, c := range children {
		contrib := sh.costOf[c.N.Topo]
		if sh.mat[c.N.Topo] && c.N.ReuseSeq < contrib {
			contrib = c.N.ReuseSeq
		}
		total += e.Weight() * contrib
	}
	return total
}

// decide runs the bottom-up materialization decisions of Figure 2.
func (sh *shState) decide() {
	uses := sh.numUses()
	for _, pn := range sh.allNodes() {
		sh.costOf[pn.N.Topo] = sh.exprCost(pn.E, pn.Children)
		nu := uses[pn.N.Topo]
		if nu < 2 || pn.N.LG.ParamDep {
			continue
		}
		c := sh.costOf[pn.N.Topo]
		matc, reuse := pn.N.MatCost, pn.N.ReuseSeq
		if !pn.N.LG.SubsumpNode {
			// The paper's test (eq. 2) is matcost/(numuses−1) + reusecost
			// < cost, which assumes the first use is pipelined. Our
			// accounting (like the paper's Figure 5 TotalCost) charges
			// reusecost for every use including the first, so the
			// consistent condition is cost + matcost + nu·reuse <
			// nu·cost:
			if matc+nu*reuse < (nu-1)*c {
				sh.mat[pn.N.Topo] = true
			}
			continue
		}
		// Node introduced by a subsumption derivation: materialize exactly
		// when the net change is a win — computing and materializing it
		// costs less than what the switched parents save (their savings
		// already account for paying reusecost per use).
		savings := sh.subsumptionSavings(pn)
		if c+matc < savings {
			sh.mat[pn.N.Topo] = true
		}
	}
}

// subsumptionSavings estimates the cost the switched parents of pn save by
// deriving from a materialized pn instead of their original derivations.
func (sh *shState) subsumptionSavings(pn *physical.PlanNode) cost.Cost {
	var savings cost.Cost
	sh.plan.Root.Walk(func(p *physical.PlanNode) {
		orig, switched := sh.origExpr[p], false
		for _, c := range p.Children {
			if c == pn {
				switched = true
			}
		}
		if orig == nil || !switched {
			return
		}
		origCost := sh.exprCost(orig, sh.origChild[p])
		// Cost via the subsumption derivation assuming pn is materialized.
		wasMat := sh.mat[pn.N.Topo]
		sh.mat[pn.N.Topo] = true
		subCost := sh.exprCost(p.E, p.Children)
		sh.mat[pn.N.Topo] = wasMat
		if origCost > subCost {
			savings += origCost - subCost
		}
	})
	return savings
}

// undo reverts subsumption derivations whose shared input was not chosen
// for materialization (the final step of Figure 2) and reports whether
// anything changed.
func (sh *shState) undo() bool {
	changed := false
	for pn, orig := range sh.origExpr {
		sharedInput := pn.Children[0]
		if sh.mat[sharedInput.N.Topo] {
			continue
		}
		pn.E = orig
		pn.Children = sh.origChild[pn]
		delete(sh.origExpr, pn)
		delete(sh.origChild, pn)
		changed = true
	}
	if changed {
		sh.recountParents()
	}
	return changed
}

// finish recomputes costs over the final plan, marks the plan's Mat set,
// and returns total cost and the materialized physical nodes.
func (sh *shState) finish() (cost.Cost, []*physical.Node) {
	ordered := sh.nodes()
	for _, pn := range ordered {
		sh.costOf[pn.N.Topo] = sh.exprCost(pn.E, pn.Children)
	}
	total := sh.costOf[sh.plan.Root.N.Topo]
	var mats []*physical.Node
	for _, pn := range ordered {
		if sh.mat[pn.N.Topo] {
			pn.Mat = true
			sh.plan.Mats = append(sh.plan.Mats, pn)
			mats = append(mats, pn.N)
			total += sh.costOf[pn.N.Topo] + pn.N.MatCost
		}
	}
	return total, mats
}

package core

import (
	"cmp"
	"context"
	"slices"

	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/physical"
)

// optimizeVolcanoSH implements the paper's Figure 2: run basic Volcano,
// take the consolidated best plan (a DAG because of shared choices), run a
// subsumption prepass, then decide bottom-up which nodes to materialize
// using the numuses⁻ underestimate, and undo unused subsumption
// derivations. The DAG's costing state must be Optimize's entry state.
func optimizeVolcanoSH(ctx context.Context, pd *physical.DAG) (*Result, error) {
	plan := pd.NewDraft()
	plan.Root = plan.Extract(pd.Root)
	total, mats, err := volcanoSHOnPlan(ctx, pd, plan)
	if err != nil {
		return nil, err
	}
	return &Result{Cost: total, Plan: plan.Seal(), Materialized: mats}, nil
}

// volcanoSHOnPlan runs the Volcano-SH materialization pass over an already
// extracted consolidated plan (also the second phase of Volcano-RU). It
// rewrites the draft in place (subsumption switches, Mat marks, Mats list)
// and returns the total cost and materialized set. The DAG's costing state
// must be the one the plan was extracted under (in Volcano-RU, its order
// pass's): the subsumption prepass extracts more child plans under it. The
// pass writes no cost and no materialization of the DAG: only the draft and
// the search scratch the DAG keeps.
func volcanoSHOnPlan(ctx context.Context, pd *physical.DAG, plan *physical.Draft) (cost.Cost, []*physical.Node, error) {
	sh := &scratchOf(pd).sh
	sh.plan = plan
	sh.prepass()
	// The prepass extracted the plan's last nodes: size the scratch to it.
	sh.per = extend(sh.per[:0], plan.Len())
	// The decisions and the undo step interact: undoing a subsumption
	// switch removes uses that justified other materializations, so we
	// re-decide after every undo until the plan is stable. Each round can
	// only shrink the set of active switches, so this terminates.
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		for i := range sh.per {
			sh.per[i].mat = false
		}
		sh.decide()
		if !sh.undo() {
			break
		}
	}
	total, mats := sh.finish()
	return total, mats, nil
}

// shState is one Volcano-SH pass over a draft plan. per, origExpr and
// origKids are by PlanNode.Index: sized to the plan, not to the DAG.
type shState struct {
	plan *physical.Draft

	per     []shNode
	order   []*physical.PlanNode // nodes' and allNodes' one slice
	present []dag.GroupID        // the prepass's logical groups in the plan, sorted
	// origExpr[i] and origKids[i] are what the prepass switched plan node
	// i away from, nil for a node it did not switch.
	origExpr []*physical.PExpr
	origKids [][]*physical.PlanNode
}

// shNode is one plan node's scratch: its cost under the decisions so far,
// its numuses⁻ and whether it is materialized.
type shNode struct {
	cost cost.Cost
	uses float64
	mat  bool
}

// nodes returns the plan nodes reachable from the root in topological
// order (children before parents), in a slice the next nodes or allNodes
// call reuses.
func (sh *shState) nodes() []*physical.PlanNode {
	out := sh.order[:0]
	sh.plan.Root.Walk(func(pn *physical.PlanNode) { out = append(out, pn) })
	sh.order = out
	return sortByTopo(out)
}

// allNodes returns every plan node ever extracted (including original
// derivations switched out by the prepass, whose costs the savings
// computation still needs), in topological order, in the slice nodes
// returns too.
func (sh *shState) allNodes() []*physical.PlanNode {
	out := sh.order[:0]
	for i := range sh.plan.Len() {
		out = append(out, sh.plan.At(int32(i)))
	}
	sh.order = out
	return sortByTopo(out)
}

// sortByTopo sorts plan nodes by their physical nodes' topological numbers,
// which are distinct: a plan has one plan node per physical node.
func sortByTopo(pns []*physical.PlanNode) []*physical.PlanNode {
	slices.SortFunc(pns, func(a, b *physical.PlanNode) int { return cmp.Compare(a.N.Topo, b.N.Topo) })
	return pns
}

// prepass switches applicable subsumption derivations into the plan (paper
// §3.2: "we perform a pre-pass, checking for subsumption amongst nodes in
// the plan produced by the basic Volcano optimization algorithm"). A
// derivation is applicable when each of its inputs is either a node already
// present in the plan (so sharing is possible) or a subsumption-introduced
// node (disjunction / group-by-union) worth introducing.
func (sh *shState) prepass() {
	present := sh.present[:0] // logical group IDs in the plan, sorted
	mark := func(id dag.GroupID) {
		if i, found := slices.BinarySearch(present, id); !found {
			present = slices.Insert(present, i, id)
		}
	}
	sh.plan.Root.Walk(func(pn *physical.PlanNode) { mark(pn.N.LG.ID) })
	// Only the nodes extracted so far can be switched; the arrays cover the
	// nodes the switches extract once the prepass is over.
	sh.origExpr = extend(sh.origExpr[:0], sh.plan.Len())
	sh.origKids = extend(sh.origKids[:0], sh.plan.Len())

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
				if _, found := slices.BinarySearch(present, c.LG.ID); !found && !c.LG.SubsumpNode {
					applicable = false
					break
				}
			}
			if !applicable {
				continue
			}
			sh.origExpr[pn.Index] = pn.E
			sh.origKids[pn.Index] = pn.Children
			pn.E = alt
			pn.Children = sh.plan.Kids(len(alt.Children))
			for i, c := range alt.Children {
				cp := sh.plan.Extract(c)
				cp.NumParents++
				pn.Children[i] = cp
				mark(c.LG.ID)
			}
			break
		}
	}
	sh.present = present
	sh.origExpr = extend(sh.origExpr, sh.plan.Len())
	sh.origKids = extend(sh.origKids, sh.plan.Len())
	// Parent counts changed by the switches: recompute from scratch.
	sh.recountParents()
}

// recountParents recomputes NumParents over the current plan DAG. The walk
// visits a node before any of its parents, so zeroing its count there comes
// before the parents' links add to it.
func (sh *shState) recountParents() {
	sh.plan.Root.Walk(func(pn *physical.PlanNode) {
		pn.NumParents = 0
		for _, c := range pn.Children {
			c.NumParents++
		}
	})
}

// countUses sets every plan node's numuses⁻, the paper's underestimate: the
// number of parent links in the consolidated plan, with nested-query
// invocation counts multiplying the link from an Invoke parent (§5). A
// node the plan no longer reaches counts 0.
func (sh *shState) countUses() {
	for i := range sh.per {
		sh.per[i].uses = 0
	}
	sh.plan.Root.Walk(func(pn *physical.PlanNode) {
		for _, c := range pn.Children {
			sh.per[c.Index].uses += pn.E.Weight()
		}
	})
	sh.per[sh.plan.Root.Index].uses = 1
}

// exprCost evaluates one plan alternative: operator cost plus child
// contributions, where materialized children contribute their reuse cost.
func (sh *shState) exprCost(e *physical.PExpr, children []*physical.PlanNode) cost.Cost {
	total := e.OpCost
	for _, c := range children {
		contrib := sh.per[c.Index].cost
		if sh.per[c.Index].mat && c.N.ReuseSeq < contrib {
			contrib = c.N.ReuseSeq
		}
		total += e.Weight() * contrib
	}
	return total
}

// decide runs the bottom-up materialization decisions of Figure 2.
func (sh *shState) decide() {
	sh.countUses()
	for _, pn := range sh.allNodes() {
		s := &sh.per[pn.Index]
		s.cost = sh.exprCost(pn.E, pn.Children)
		nu := s.uses
		if nu < 2 || pn.N.LG.ParamDep {
			continue
		}
		c := s.cost
		matc, reuse := pn.N.MatCost, pn.N.ReuseSeq
		if !pn.N.LG.SubsumpNode {
			// The paper's test (eq. 2) is matcost/(numuses−1) + reusecost
			// < cost, which assumes the first use is pipelined. Our
			// accounting (like the paper's Figure 5 TotalCost) charges
			// reusecost for every use including the first, so the
			// consistent condition is cost + matcost + nu·reuse <
			// nu·cost:
			if matc+nu*reuse < (nu-1)*c {
				s.mat = true
			}
			continue
		}
		// Node introduced by a subsumption derivation: materialize exactly
		// when the net change is a win — computing and materializing it
		// costs less than what the switched parents save (their savings
		// already account for paying reusecost per use).
		savings := sh.subsumptionSavings(pn)
		if c+matc < savings {
			s.mat = true
		}
	}
}

// subsumptionSavings estimates the cost the switched parents of pn save by
// deriving from a materialized pn instead of their original derivations.
func (sh *shState) subsumptionSavings(pn *physical.PlanNode) cost.Cost {
	var savings cost.Cost
	sh.plan.Root.Walk(func(p *physical.PlanNode) {
		orig, switched := sh.origExpr[p.Index], false
		for _, c := range p.Children {
			if c == pn {
				switched = true
			}
		}
		if orig == nil || !switched {
			return
		}
		origCost := sh.exprCost(orig, sh.origKids[p.Index])
		// Cost via the subsumption derivation assuming pn is materialized.
		s := &sh.per[pn.Index]
		wasMat := s.mat
		s.mat = true
		subCost := sh.exprCost(p.E, p.Children)
		s.mat = wasMat
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
	for i, orig := range sh.origExpr {
		if orig == nil {
			continue
		}
		pn := sh.plan.At(int32(i))
		sharedInput := pn.Children[0]
		if sh.per[sharedInput.Index].mat {
			continue
		}
		pn.E = orig
		pn.Children = sh.origKids[i]
		sh.origExpr[i], sh.origKids[i] = nil, nil
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
		sh.per[pn.Index].cost = sh.exprCost(pn.E, pn.Children)
	}
	total := sh.per[sh.plan.Root.Index].cost
	var mats []*physical.Node
	for _, pn := range ordered {
		if s := sh.per[pn.Index]; s.mat {
			pn.Mat = true
			sh.plan.Mats = append(sh.plan.Mats, pn)
			mats = append(mats, pn.N)
			total += s.cost + pn.N.MatCost
		}
	}
	return total, mats
}

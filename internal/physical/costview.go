package physical

import "mqo/internal/cost"

// CostView is a private what-if overlay over a DAG's costing state: a
// materialized-set delta (additions and removals) plus per-node cost
// overrides, maintained with the same incremental dirty-ancestor
// propagation as DAG.SetMaterialized (paper Figure 5) but without ever
// writing to the shared DAG. Several CostViews over one DAG can therefore
// evaluate what-if materializations concurrently — the parallel benefit
// loop of the greedy heuristic hands one view to each worker.
//
// A CostView treats the underlying DAG as an immutable snapshot: while any
// view is in use the DAG's costing state (node costs, materialized set)
// must not change. Toggle on the DAG only between fan-out rounds, then keep
// using the same views — they read base costs live, so no copying is needed
// to refresh them.
//
// A CostView is not safe for concurrent use by multiple goroutines; use
// one view per worker.
//
// Everything a view holds per node is an array over Node.Topo, and per
// group an array over the group table's rows — both fixed when the DAG was
// built — so the recurrences' reads under a view (costIn, matIn,
// firstUsableMat) are array reads. An entry belongs to the view's current
// delta only when its stamp equals the view's epoch: Reset is one increment
// however many nodes the what-if touched, and a pooled view's arrays are
// allocated once for the DAG's lifetime. What is summed is never read off
// the arrays: totals and benefits walk the topologically ordered matList /
// addList, because the order of a float64 sum is part of its result.
type CostView struct {
	pd *DAG

	epoch uint32     // never zero, so a zeroed stamp is never current
	nodes []viewNode // by Node.Topo
	adds  []viewAdds // by group row: the group's nodes materialized in the view only
	// addList is the nodes materialized in the view and not in the base, in
	// topological order, for reproducible sums.
	addList []*Node
	// touched lists the nodes whose cost the view overrides, in the order
	// first recorded — within one propagation wave, topological order.
	touched []*Node

	heap nodeHeap

	// Propagation instrumentation, accumulated across what-ifs until the
	// owner drains it (DrainCounters) into the DAG's Figure 10 counters.
	Propagations   int64
	Recomputations int64
}

// viewNode is a view's private state of one node.
type viewNode struct {
	cost   cost.Cost
	costAt uint32 // cost overrides Node.Cost when equal to the epoch
	// flipAt, when equal to the epoch, says the node's materialization under
	// the view is the opposite of the base's. (The base does not change
	// while a view holds a delta, so "opposite" is all a view needs to say.)
	flipAt uint32
}

type viewAdds struct {
	nodes []*Node
	at    uint32 // nodes is current when equal to the epoch, stale otherwise
}

// NewCostView returns an empty overlay over pd's current costing state.
func (pd *DAG) NewCostView() *CostView {
	return &CostView{
		pd:    pd,
		epoch: 1,
		nodes: make([]viewNode, len(pd.Nodes)),
		adds:  make([]viewAdds, len(pd.groups)),
		heap:  newNodeHeap(len(pd.Nodes)),
	}
}

// flipped reports whether n's materialization under the view differs from
// the base's.
func (v *CostView) flipped(n *Node) bool { return v.nodes[n.Topo].flipAt == v.epoch }

// addsOf returns the nodes of group row gi materialized in the view only.
func (v *CostView) addsOf(gi int32) []*Node {
	if a := &v.adds[gi]; a.at == v.epoch {
		return a.nodes
	}
	return nil
}

// override records c as n's cost under the view.
func (v *CostView) override(n *Node, c cost.Cost) {
	o := &v.nodes[n.Topo]
	if o.costAt != v.epoch {
		o.costAt = v.epoch
		v.touched = append(v.touched, n)
	}
	o.cost = c
}

// AcquireView returns a pristine CostView over pd, reusing a pooled view
// when one is free. Views are bound to their DAG: the pool keeps the
// per-view arrays across search phases — greedy benefit waves, Volcano-RU
// order passes — instead of reallocating them per phase. Return views with
// ReleaseView.
func (pd *DAG) AcquireView() *CostView {
	pd.viewMu.Lock()
	defer pd.viewMu.Unlock()
	n := len(pd.views)
	if n == 0 {
		return pd.NewCostView()
	}
	v := pd.views[n-1]
	pd.views[n-1] = nil
	pd.views = pd.views[:n-1]
	return v
}

// ReleaseView resets v and returns it to pd's pool. The caller must drain
// the view's instrumentation counters first (DrainCounters) if it wants
// them; ReleaseView discards whatever is left so the next owner starts at
// zero.
func (pd *DAG) ReleaseView(v *CostView) {
	if v == nil || v.pd != pd {
		return
	}
	v.Reset()
	v.Propagations, v.Recomputations = 0, 0
	pd.viewMu.Lock()
	pd.views = append(pd.views, v)
	pd.viewMu.Unlock()
}

// DAG returns the view's underlying DAG.
func (v *CostView) DAG() *DAG { return v.pd }

// Materialized reports whether n is materialized under the view.
func (v *CostView) Materialized(n *Node) bool { return v.pd.matIn(v, n) }

// CostOf returns n's computation cost under the view.
func (v *CostView) CostOf(n *Node) cost.Cost { return v.pd.costIn(v, n) }

// SetMaterialized toggles the materialization status of n inside the view
// and incrementally propagates the cost change to affected ancestors as
// cost overrides, leaving the shared DAG untouched. It returns the number
// of nodes whose cost was re-examined.
func (v *CostView) SetMaterialized(n *Node, on bool) int {
	return v.SetMaterializedMark(n, on, nil)
}

// SetMaterializedMark is SetMaterialized with change tracking: mark, when
// non-nil, is called for every node whose cost value the propagation wave
// actually changed — the `alters` half of a what-if conflict cone. Callers
// batching several commits (Volcano-RU's reuse promotions) use the marks
// to prove which pending decisions a committed one could have influenced,
// and re-examine only those.
func (v *CostView) SetMaterializedMark(n *Node, on bool, mark func(*Node)) int {
	pd := v.pd
	if pd.matIn(v, n) == on {
		return 0
	}
	base := pd.costing.mat[n.Topo]
	if on == base {
		v.nodes[n.Topo].flipAt = 0
	} else {
		v.nodes[n.Topo].flipAt = v.epoch
	}
	if !base {
		// The by-group and topological lists hold the view's additions;
		// removals of base members are the flipped entries of the base's.
		a := &v.adds[n.gi]
		if a.at != v.epoch {
			a.nodes, a.at = a.nodes[:0], v.epoch
		}
		if on {
			a.nodes = append(a.nodes, n)
			v.addList = insertTopo(v.addList, n)
		} else {
			a.nodes = removeNode(a.nodes, n)
			v.addList = removeNode(v.addList, n)
		}
	}
	v.Recomputations++
	touched := pd.propagate(v, n, mark)
	v.Propagations += int64(touched)
	return touched
}

// TotalCost is bestcost(Q, S) under the view: the root's cost plus the
// computation and materialization cost of every member of the view's
// materialized set. Both lists are walked in topological order, so the
// float64 sum is bit-reproducible across runs and workers.
func (v *CostView) TotalCost() cost.Cost {
	pd := v.pd
	total := pd.costIn(v, pd.Root)
	for _, m := range pd.costing.matList {
		if v.flipped(m) {
			continue
		}
		total += pd.costIn(v, m) + m.MatCost
	}
	for _, m := range v.addList {
		total += pd.costIn(v, m) + m.MatCost
	}
	return total
}

// Reset drops the view's delta and overrides, returning it to a pristine
// overlay of the DAG's current state. Instrumentation counters are kept
// (drain them with DrainCounters).
func (v *CostView) Reset() {
	v.addList = v.addList[:0]
	v.touched = v.touched[:0]
	v.epoch++
	if v.epoch == 0 {
		// Wrapped: a stamp left 2³² resets ago would read as current.
		clear(v.nodes)
		for i := range v.adds {
			v.adds[i].at = 0
		}
		v.epoch = 1
	}
}

// DrainCounters returns and zeroes the view's accumulated (propagations,
// recomputations) counts, for merging into the DAG's instrumentation.
func (v *CostView) DrainCounters() (propagations, recomputations int64) {
	propagations, recomputations = v.Propagations, v.Recomputations
	v.Propagations, v.Recomputations = 0, 0
	return propagations, recomputations
}

// WhatIfBenefit computes bestcost(Q, S) - bestcost(Q, S ∪ {n}) — the
// benefit of additionally materializing n — without touching the shared
// DAG. The view must be pristine when called (as it is between WhatIf*
// calls) and is reset afterwards, ready for the next what-if.
//
// The benefit is computed in DELTA form — the sum, in topological order,
// of (old - new) over exactly the terms of TotalCost the wave changed,
// minus the new member's computation and materialization cost — rather
// than as a subtraction of two full TotalCost sums. In real arithmetic the
// two are identical; in floats the delta form is what makes benefits
// bit-stable across commits of independent picks: a candidate whose cone
// does not conflict with a committed pick sums the exact same per-node
// deltas before and after the commit, so its benefit — and therefore
// every benefit-ranked tie among symmetric candidates — reproduces
// bit-for-bit, which the multi-pick determinism guarantee relies on.
// (Subtracting whole-DAG totals would instead shift every candidate's
// rounding whenever the shared materialized list gains a term.)
func (v *CostView) WhatIfBenefit(n *Node) cost.Cost {
	ben, _ := v.whatIf(n, false)
	return ben
}

// WhatIfBenefitCone is WhatIfBenefit plus the what-if's conflict cone:
// the nodes whose cost the wave changed (alters) and the wave's choice
// points (sensitive) — its seed siblings and every visited node with more
// than one implementation. The multi-pick engine uses Cone.Conflicts to
// prove that two candidates' commits cannot affect each other's benefits.
func (v *CostView) WhatIfBenefitCone(n *Node) (cost.Cost, Cone) {
	return v.whatIf(n, true)
}

// whatIf toggles n on inside the pristine view, sums the benefit in delta
// form (and optionally captures the conflict cone), then resets the view.
func (v *CostView) whatIf(n *Node, wantCone bool) (cost.Cost, Cone) {
	pd := v.pd
	if pd.matIn(v, n) {
		return 0, Cone{}
	}
	v.SetMaterialized(n, true)
	// Benefit = Σ (old - new) over the changed TotalCost terms — the root
	// and the base materialized list, walked in topological order for
	// reproducible float sums — minus the new member's own contribution.
	ben := cost.Cost(0)
	if o := &v.nodes[pd.Root.Topo]; o.costAt == v.epoch {
		ben += pd.Root.Cost - o.cost
	}
	for _, m := range pd.costing.matList {
		if o := &v.nodes[m.Topo]; o.costAt == v.epoch {
			ben += m.Cost - o.cost
		}
	}
	ben -= pd.costIn(v, n) + n.MatCost

	var cone Cone
	if wantCone {
		cone = Cone{alters: newConeBits(len(pd.Nodes)), sensitive: newConeBits(len(pd.Nodes))}
		cone.sensitive.add(n)
		for _, s := range pd.siblings(n) {
			if n.Prop.Satisfies(s.Prop) {
				cone.sensitive.add(s)
			}
		}
		for _, x := range v.touched {
			if v.nodes[x.Topo].cost != x.Cost {
				cone.alters.add(x)
				// A changed node whose group already has a materialized
				// member sits at an armed reuse threshold: its consumers
				// pay min(cost, reusecost), and two waves that each keep
				// the cost above reusecost can jointly push it below,
				// flipping the min non-additively. Treat such nodes as
				// choice points, not plain value changes.
				if len(pd.groups[x.gi].mats) > 0 || len(v.addsOf(x.gi)) > 0 {
					cone.sensitive.add(x)
				}
			}
			if len(x.Exprs) > 1 {
				cone.sensitive.add(x)
			}
		}
	}
	v.Reset()
	return ben, cone
}

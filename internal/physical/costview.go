package physical

import "mqo/internal/cost"

// CostView is a what-if overlay over a DAG's costing state: a
// materialized-set delta (additions and removals) plus per-node cost
// overrides, maintained with the same incremental dirty-ancestor
// propagation as DAG.SetMaterialized (paper Figure 5) but without ever
// writing to the DAG. A search tries materializations in the view — a
// greedy benefit (WhatIfBenefit), a Volcano-RU order pass — and commits to
// the DAG only what it keeps.
//
// A DAG has one view (DAG.View), used by whichever search holds the DAG. The
// view treats the DAG's costing state as its base: toggle on the DAG only
// while the view is pristine (between what-ifs); the view reads base costs
// live, so it needs no refresh afterwards.
//
// Everything a view holds is an array over the DAG's flat layout (flatDAG),
// fixed when the DAG was built: cost overrides by Node.Topo, its own
// propagation front, and its materialized set as the base's with some
// members flipped — bitmask words like the base's, applied to a group's
// words by XOR — so whether a materialized node can serve an input under
// the view is one AND of a group's word with the input's satisfied-by mask
// (serveMask), as it is on the base. An entry belongs to the view's
// current delta only when its stamp equals the view's epoch: Reset is one
// increment however many nodes the what-if touched, and the view's arrays
// are allocated once for the DAG's lifetime. What is summed is never
// read off the arrays: totals and benefits walk the topologically ordered
// matList / addList, because the order of a float64 sum is part of its
// result.
type CostView struct {
	pd *DAG

	epoch uint32     // never zero, so a zeroed stamp is never current
	nodes []viewNode // by Node.Topo
	// flips are the group bitmask words (flatNode.matLo) of the nodes whose
	// membership under the view is the opposite of the base's (the base does
	// not change while a view holds a delta, so "opposite" is all a view
	// needs to say); a group's words are current when flipAt[g] equals the
	// epoch, all zero otherwise.
	flips  []uint64
	flipAt []uint32 // by group row
	adds   uint32   // nodes added in the epoch so far, for viewNode.setAt
	// addList is the nodes materialized in the view and not in the base, in
	// topological order, for reproducible sums.
	addList []*Node

	front front

	// Propagation instrumentation, accumulated across what-ifs until the
	// owner drains it (DrainCounters) into the DAG's Figure 10 counters.
	Propagations   int64
	Recomputations int64
}

// viewNode is a view's private state of one node.
type viewNode struct {
	cost   cost.Cost
	costAt uint32 // cost overrides the base's when equal to the epoch
	// setAt orders the view's additions to one group by when they were
	// added (firstUsableMat); valid for the view's additions only.
	setAt uint32
}

// newCostView returns an empty overlay over pd's current costing state.
func newCostView(pd *DAG) *CostView {
	return &CostView{
		pd:     pd,
		epoch:  1,
		nodes:  make([]viewNode, len(pd.Nodes)),
		flips:  make([]uint64, len(pd.costing.mat)),
		flipAt: make([]uint32, len(pd.groups)),
		front:  newFront(len(pd.Nodes), len(pd.flat.exprs)-1),
	}
}

// override records c as node t's cost under the view.
func (v *CostView) override(t int, c cost.Cost) {
	o := &v.nodes[t]
	o.cost, o.costAt = c, v.epoch
}

// View returns the DAG's CostView, made on first use and kept for the DAG's
// lifetime, so its arrays are allocated once. DAG.Reset leaves it pristine,
// as Optimize's entry reset does before every search; a search drains its
// counters (DrainCounters, AddCounters) before it returns.
func (pd *DAG) View() *CostView {
	if pd.view == nil {
		pd.view = newCostView(pd)
	}
	return pd.view
}

// Materialized reports whether n is materialized under the view.
func (v *CostView) Materialized(n *Node) bool { return v.pd.matIn(v, n.Topo) }

// CostOf returns n's computation cost under the view.
func (v *CostView) CostOf(n *Node) cost.Cost { return v.pd.costIn(v, n.Topo) }

// SetMaterialized toggles the materialization status of n inside the view
// and incrementally propagates the cost change to affected ancestors as
// cost overrides, leaving the DAG untouched. It returns the number
// of nodes whose cost was re-examined.
func (v *CostView) SetMaterialized(n *Node, on bool) int {
	pd := v.pd
	if pd.matIn(v, n.Topo) == on {
		return 0
	}
	fn := &pd.flat.nodes[n.Topo]
	if v.flipAt[fn.gi] != v.epoch {
		clear(v.flips[fn.matLo : fn.matLo+fn.words])
		v.flipAt[fn.gi] = v.epoch
	}
	k, b := pd.flat.bit(n.Topo)
	v.flips[k] ^= b
	if pd.costing.mat[k]&b == 0 {
		// The topological list holds the view's additions; removals of
		// base members are flipped bits of the base's.
		if on {
			v.adds++
			v.nodes[n.Topo].setAt = v.adds
			v.addList = insertTopo(v.addList, n)
		} else {
			v.addList = removeNode(v.addList, n)
		}
	}
	v.Recomputations++
	touched := pd.propagate(v, n, on)
	v.Propagations += int64(touched)
	return touched
}

// TotalCost is bestcost(Q, S) under the view: the root's cost plus the
// computation and materialization cost of every member of the view's
// materialized set. Both lists are walked in topological order, so the
// float64 sum is bit-reproducible across runs.
func (v *CostView) TotalCost() cost.Cost {
	pd := v.pd
	total := pd.costIn(v, pd.Root.Topo)
	for _, m := range pd.costing.matList {
		if !pd.matIn(v, m.Topo) {
			continue
		}
		total += pd.costIn(v, m.Topo) + m.MatCost
	}
	for _, m := range v.addList {
		total += pd.costIn(v, m.Topo) + m.MatCost
	}
	return total
}

// Reset drops the view's delta and overrides, returning it to a pristine
// overlay of the DAG's current state. Instrumentation counters are kept
// (drain them with DrainCounters).
func (v *CostView) Reset() {
	v.addList, v.adds = v.addList[:0], 0
	v.epoch++
	if v.epoch == 0 {
		// Wrapped: a stamp left 2³² resets ago would read as current.
		clear(v.nodes)
		clear(v.flipAt)
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
// benefit of additionally materializing n — without touching the DAG.
// The view must be pristine when called (as it is between WhatIf*
// calls) and is reset afterwards, ready for the next what-if.
//
// The benefit is computed in DELTA form — the sum, in topological order,
// of (old - new) over exactly the terms of TotalCost the wave changed,
// minus the new member's computation and materialization cost — rather
// than as a subtraction of two full TotalCost sums. In real arithmetic the
// two are identical; in floats they round differently, and the order of a
// sum is part of its result: near-tied candidates rank by these bits, so
// the greedy picks — and the golden plan snapshots that lock them — are
// bit-equal only with this summation order.
func (v *CostView) WhatIfBenefit(n *Node) cost.Cost {
	pd := v.pd
	if pd.matIn(v, n.Topo) {
		return 0
	}
	v.SetMaterialized(n, true)
	// Benefit = Σ (old - new) over the changed TotalCost terms — the root
	// and the base materialized list, walked in topological order for
	// reproducible float sums — minus the new member's own contribution.
	ben := cost.Cost(0)
	base := pd.costing.cost
	if o := &v.nodes[pd.Root.Topo]; o.costAt == v.epoch {
		ben += base[pd.Root.Topo] - o.cost
	}
	for _, m := range pd.costing.matList {
		if o := &v.nodes[m.Topo]; o.costAt == v.epoch {
			ben += base[m.Topo] - o.cost
		}
	}
	ben -= pd.costIn(v, n.Topo) + n.MatCost
	v.Reset()
	return ben
}

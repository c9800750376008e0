package physical

import (
	"mqo/internal/cost"
	"mqo/internal/dag"
)

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
type CostView struct {
	pd *DAG

	over       map[*Node]cost.Cost // cost overrides (dirty ancestors)
	matAdd     map[*Node]bool      // materialized in the view, not in the base
	matDel     map[*Node]bool      // materialized in the base, not in the view
	addByGroup map[*dag.Group][]*Node
	addList    []*Node // matAdd in topological order, for reproducible sums

	heap   nodeHeap
	forced map[*Node]bool

	// Propagation instrumentation, accumulated across what-ifs until the
	// owner drains it (DrainCounters) into the DAG's Figure 10 counters.
	Propagations   int64
	Recomputations int64
}

// NewCostView returns an empty overlay over pd's current costing state.
func (pd *DAG) NewCostView() *CostView {
	return &CostView{
		pd:         pd,
		over:       map[*Node]cost.Cost{},
		matAdd:     map[*Node]bool{},
		matDel:     map[*Node]bool{},
		addByGroup: map[*dag.Group][]*Node{},
		heap:       nodeHeap{inHeap: map[*Node]bool{}},
		forced:     map[*Node]bool{},
	}
}

// AcquireView returns a pristine CostView over pd, reusing a pooled view
// when one is free. Views are bound to their DAG: the pool keeps the
// per-view maps (whose capacity tracks the DAG's hot cone sizes) warm
// across search phases — greedy benefit waves, Volcano-RU order passes —
// instead of reallocating them per phase. Return views with ReleaseView.
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
	base := pd.costing.mat[n]
	if on {
		if base {
			delete(v.matDel, n)
		} else {
			v.matAdd[n] = true
			v.addByGroup[n.LG] = append(v.addByGroup[n.LG], n)
			v.addList = insertTopo(v.addList, n)
		}
	} else {
		if base {
			v.matDel[n] = true
		} else {
			delete(v.matAdd, n)
			v.addByGroup[n.LG] = removeNode(v.addByGroup[n.LG], n)
			v.addList = removeNode(v.addList, n)
		}
	}
	v.Recomputations++

	// Dirty-ancestor propagation from the toggled node: seed with the
	// sibling nodes whose consumers may now see a different input cost,
	// then walk upward in topological order (Figure 5), recording changed
	// costs as overrides instead of writing Node.Cost.
	h := &v.heap
	for _, s := range pd.byGroup[n.LG] {
		if n.Prop.Satisfies(s.Prop) {
			v.forced[s] = true
			h.add(s)
		}
	}
	touched := 0
	for h.Len() > 0 {
		cur := h.pop()
		v.Propagations++
		touched++
		old := pd.costIn(v, cur)
		next := pd.nodeCost(v, cur)
		v.over[cur] = next
		if next != old {
			if mark != nil {
				mark(cur)
			}
		}
		if next != old || v.forced[cur] {
			for _, p := range cur.Parents {
				h.add(p.Node)
			}
		}
	}
	clear(v.forced)
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
		if v.matDel[m] {
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
	clear(v.over)
	clear(v.matAdd)
	clear(v.matDel)
	clear(v.addByGroup)
	v.addList = v.addList[:0]
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
	if c, ok := v.over[pd.Root]; ok {
		ben += pd.Root.Cost - c
	}
	for _, m := range pd.costing.matList {
		if c, ok := v.over[m]; ok {
			ben += m.Cost - c
		}
	}
	ben -= pd.costIn(v, n) + n.MatCost

	var cone Cone
	if wantCone {
		cone = Cone{alters: newConeBits(len(pd.Nodes)), sensitive: newConeBits(len(pd.Nodes))}
		cone.sensitive.add(n)
		for _, s := range pd.byGroup[n.LG] {
			if n.Prop.Satisfies(s.Prop) {
				cone.sensitive.add(s)
			}
		}
		for x, c := range v.over {
			if c != x.Cost {
				cone.alters.add(x)
				// A changed node whose group already has a materialized
				// member sits at an armed reuse threshold: its consumers
				// pay min(cost, reusecost), and two waves that each keep
				// the cost above reusecost can jointly push it below,
				// flipping the min non-additively. Treat such nodes as
				// choice points, not plain value changes.
				if len(pd.costing.matByGroup[x.LG]) > 0 || len(v.addByGroup[x.LG]) > 0 {
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

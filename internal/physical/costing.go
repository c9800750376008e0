package physical

import "mqo/internal/cost"

// costState tracks the set of materialized nodes and supports full and
// incremental recosting of the DAG (paper Figure 5). Membership is an array
// over Node.Topo; the per-group lists the reuse test scans are the group
// table's mats.
type costState struct {
	mat []bool // by Node.Topo
	// matList is the materialized set in topological order. Cost totals sum
	// over this list, never over mat: float64 addition is not associative,
	// so the order of the sum is part of the result — a different order
	// could move a total by an ulp, enough to flip a near-tie greedy pick
	// and break the serial ≡ parallel plan guarantee.
	matList []*Node

	heap nodeHeap // SetMaterialized's propagation front, empty between calls

	// dirty is set by everything that can move a node's cost off what a full
	// pass under the empty materialized set gives — a materialization, an
	// armed alternative — and cleared by such a pass (Recost with nothing
	// materialized). Reset skips the pass while it is clear.
	dirty bool

	// Counters for the Figure 10 / §6.3 experiments.
	Propagations   int64 // nodes popped from the propagation heap
	Recomputations int64 // incremental UpdateCost invocations
}

// insertTopo inserts n into a Topo-sorted node list.
func insertTopo(list []*Node, n *Node) []*Node {
	i := len(list)
	for i > 0 && list[i-1].Topo > n.Topo {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

// removeNode removes n from a node list, preserving order.
func removeNode(list []*Node, n *Node) []*Node {
	for i, m := range list {
		if m == n {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// initCosting initializes the costing state and runs a full bottom-up pass.
func (pd *DAG) initCosting() {
	pd.costing = costState{mat: make([]bool, len(pd.Nodes)), heap: newNodeHeap(len(pd.Nodes))}
	pd.Recost()
}

// Materialized reports whether n is currently materialized.
func (pd *DAG) Materialized(n *Node) bool { return pd.costing.mat[n.Topo] }

// MaterializedSet returns the current set of materialized nodes, in
// topological order.
func (pd *DAG) MaterializedSet() []*Node {
	return append([]*Node(nil), pd.costing.matList...)
}

// Counters returns the (propagations, recomputations) instrumentation.
func (pd *DAG) Counters() (int64, int64) {
	return pd.costing.Propagations, pd.costing.Recomputations
}

// ResetCounters zeroes the instrumentation counters.
func (pd *DAG) ResetCounters() {
	pd.costing.Propagations, pd.costing.Recomputations = 0, 0
}

// AddCounters merges externally accumulated (propagations, recomputations)
// counts — typically drained from CostViews after a what-if fan-out — into
// the DAG's instrumentation, keeping Figure 10's counters meaningful under
// concurrent benefit evaluation.
func (pd *DAG) AddCounters(propagations, recomputations int64) {
	pd.costing.Propagations += propagations
	pd.costing.Recomputations += recomputations
}

// The costing primitives below are parameterized by an optional *CostView
// overlay: with v == nil they read and describe the DAG's own (shared)
// costing state; with a view they see the view's private materialization
// delta and cost overrides instead, leaving the DAG untouched. This is the
// single implementation of the paper's C(e)/cost recurrences used by both
// the shared state machine and the concurrent what-if engine.

// costIn is the current computation cost of n under the overlay.
func (pd *DAG) costIn(v *CostView, n *Node) cost.Cost {
	if v != nil {
		if o := &v.nodes[n.Topo]; o.costAt == v.epoch {
			return o.cost
		}
	}
	return n.Cost
}

// matIn reports whether n is materialized under the overlay.
func (pd *DAG) matIn(v *CostView, n *Node) bool {
	return pd.costing.mat[n.Topo] != (v != nil && v.flipped(n))
}

// firstUsableMat returns the first node materialized under the overlay
// that can serve input c's requirement for consumer owner, or nil. It
// excludes owner itself (a node must not account its own materialization
// while computing its own cost), and when the consumer is an enforcer of
// the same group only c's own materialization qualifies: allowing a
// sibling's would let two sibling materializations cyclically claim to
// derive from each other. It is the single scan behind both costing
// (reusableBy) and plan extraction, so extracted plans always match the
// costs computed for them.
func (pd *DAG) firstUsableMat(v *CostView, c, owner *Node) *Node {
	sameGroup := owner != nil && owner.gi == c.gi
	usable := func(m *Node) bool {
		if m == owner || (sameGroup && m != c) {
			return false
		}
		return m.Prop.Satisfies(c.Prop)
	}
	for _, m := range pd.groups[c.gi].mats {
		if v != nil && v.flipped(m) {
			continue
		}
		if usable(m) {
			return m
		}
	}
	if v != nil {
		for _, m := range v.addsOf(c.gi) {
			if usable(m) {
				return m
			}
		}
	}
	return nil
}

// reusableBy reports whether some materialized node of c's logical group
// can serve c's requirement for consumer owner.
func (pd *DAG) reusableBy(v *CostView, c, owner *Node) bool {
	return pd.firstUsableMat(v, c, owner) != nil
}

// childCost is the paper's C(e): the cost of input c as seen by a consuming
// operator owned by owner — min(cost, reusecost) when a satisfying
// materialization exists.
func (pd *DAG) childCost(v *CostView, c, owner *Node) cost.Cost {
	cc := pd.costIn(v, c)
	if c.ReuseSeq < cc && pd.reusableBy(v, c, owner) {
		return c.ReuseSeq
	}
	return cc
}

// exprCostIn computes the cost of one physical operation node under the
// overlay's materialization state.
func (pd *DAG) exprCostIn(v *CostView, e *PExpr) cost.Cost {
	total := e.OpCost
	for _, c := range e.Children {
		total += e.weight * pd.childCost(v, c, e.Node)
	}
	return total
}

// exprCost computes the cost of one physical operation node under the
// current (shared) materialization state.
func (pd *DAG) exprCost(e *PExpr) cost.Cost { return pd.exprCostIn(nil, e) }

// nodeCost computes min over the node's operation nodes.
func (pd *DAG) nodeCost(v *CostView, n *Node) cost.Cost {
	best := cost.Cost(0)
	for i, e := range n.Exprs {
		c := pd.exprCostIn(v, e)
		if i == 0 || c < best {
			best = c
		}
	}
	return best
}

// Recost performs a full bottom-up costing pass in topological order.
func (pd *DAG) Recost() {
	for _, n := range pd.Nodes {
		n.Cost = pd.nodeCost(nil, n)
	}
	pd.costing.dirty = len(pd.costing.matList) > 0
}

// Reset returns the costing state to the one Build left — nothing
// materialized, every Node.Cost what a full pass gives then, zero counters —
// plus whatever the result cache armed since. It runs that pass only when
// something moved a cost since the last one: a DAG straight from Build, or
// reset already, is left as it is. Sharable flags are left too; the greedy
// search sets every one before it reads any.
func (pd *DAG) Reset() {
	cs := &pd.costing
	for _, m := range cs.matList {
		cs.mat[m.Topo] = false
		pd.groups[m.gi].mats = pd.groups[m.gi].mats[:0]
	}
	cs.matList = cs.matList[:0]
	if cs.dirty {
		pd.Recost()
	}
	pd.ResetCounters()
}

// TotalCost is bestcost(Q, S): the cost of the best plan for the batch root
// given the current materialized set, including the cost of computing and
// materializing every member (paper §4, Figure 5's TotalCost). Summation
// runs in topological order so the result is bit-reproducible.
func (pd *DAG) TotalCost() cost.Cost {
	total := pd.Root.Cost
	for _, m := range pd.costing.matList {
		total += m.Cost + m.MatCost
	}
	return total
}

// nodeHeap is a min-heap of nodes ordered by topological number, used to
// propagate cost changes upward without revisiting nodes (paper Figure 5).
// Topological numbers are unique, so the pop order is the same for any
// insertion order.
type nodeHeap struct {
	items []*Node
	in    []bool // by Node.Topo: the node is in items
	// moved[e.id] == round says an input of operation node e moved in the
	// current propagation: it is a seed, or its cost changed. Such an e's
	// cost may differ from the last round's; a decrease-only update re-prices
	// those and no others (lowerCost).
	moved []uint32
	round uint32
}

func newNodeHeap(nodes int) nodeHeap { return nodeHeap{in: make([]bool, nodes)} }

// nextRound starts a propagation over a DAG of exprs operation nodes: no
// input has moved in it yet. (Once the counter wraps, a stamp from 2³² rounds
// ago reads as current; that only re-prices an operation node whose cost
// stands.)
func (h *nodeHeap) nextRound(exprs int32) {
	if int(exprs) > len(h.moved) {
		// The result cache armed alternatives since the heap was made.
		h.moved = append(h.moved, make([]uint32, int(exprs)-len(h.moved))...)
	}
	h.round++
}

func (h *nodeHeap) add(n *Node) {
	if h.in[n.Topo] {
		return
	}
	h.in[n.Topo] = true
	h.items = append(h.items, n)
	i := len(h.items) - 1
	for i > 0 {
		up := (i - 1) / 2
		if h.items[up].Topo < n.Topo {
			break
		}
		h.items[i] = h.items[up]
		i = up
	}
	h.items[i] = n
}

func (h *nodeHeap) pop() *Node {
	top := h.items[0]
	h.in[top.Topo] = false
	last := len(h.items) - 1
	n := h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= last {
			break
		}
		if kid+1 < last && h.items[kid+1].Topo < h.items[kid].Topo {
			kid++
		}
		if n.Topo < h.items[kid].Topo {
			break
		}
		h.items[i] = h.items[kid]
		i = kid
	}
	if last > 0 {
		h.items[i] = n
	}
	return top
}

// propagate is the paper's incremental cost update (Figure 5) after n's
// materialization was toggled, to on when on is set: seed with the nodes of
// n's group whose consumers may now see a different input cost (the changed
// set S△S′), then walk upward in topological order so no node is processed
// twice. Under a view the new costs are recorded as overrides, otherwise
// written to the nodes. It returns the number of nodes re-examined.
//
// A node is re-examined when one of its inputs moved. After a
// materialization is turned off, each is re-costed in full (nodeCost). One
// turned on can only lower costs — C(e) gains a reuse option and loses none,
// and OpCost + w·x with w ≥ 0 is monotone in floats — so a node's operation
// nodes with no moved input keep their cost, and its new cost is the least
// of its old one and those of the operation nodes that have a moved input
// (lowerCost): the value nodeCost would return, bit for bit, for a fraction
// of the work.
func (pd *DAG) propagate(v *CostView, n *Node, on bool) int {
	h := &pd.costing.heap
	if v != nil {
		h = &v.heap
	}
	h.nextRound(pd.numExprs)
	for _, s := range pd.siblings(n) {
		if n.Prop.Satisfies(s.Prop) {
			h.add(s)
		}
	}
	touched := 0
	for len(h.items) > 0 {
		cur := h.pop()
		touched++
		old := pd.costIn(v, cur)
		var next cost.Cost
		if on {
			next = pd.lowerCost(v, h, cur, old)
		} else {
			next = pd.nodeCost(v, cur)
		}
		if v != nil {
			v.override(cur, next)
		} else {
			cur.Cost = next
		}
		// A seed's consumers are visited even when its own cost stands:
		// what changed for them is whether they can reuse it.
		if next != old || (cur.gi == n.gi && n.Prop.Satisfies(cur.Prop)) {
			for _, p := range cur.Parents {
				h.moved[p.id] = h.round
				h.add(p.Node)
			}
		}
	}
	return touched
}

// lowerCost is nodeCost after an addition to the materialized set, given the
// node's cost old before it: the operation nodes with an input that moved
// this round are re-priced, the others keep the cost old already accounts
// for (see propagate).
func (pd *DAG) lowerCost(v *CostView, h *nodeHeap, n *Node, old cost.Cost) cost.Cost {
	best := old
	for _, e := range n.Exprs {
		if h.moved[e.id] == h.round {
			if ec := pd.exprCostIn(v, e); ec < best {
				best = ec
			}
		}
	}
	return best
}

// SetMaterialized toggles the materialization status of n and incrementally
// propagates the cost change to affected ancestors (propagate). It returns
// the number of nodes whose cost was re-examined.
func (pd *DAG) SetMaterialized(n *Node, on bool) int {
	cs := &pd.costing
	if cs.mat[n.Topo] == on {
		return 0
	}
	pd.SetMaterializedRaw(n, on)
	cs.Recomputations++
	touched := pd.propagate(nil, n, on)
	cs.Propagations += int64(touched)
	return touched
}

// SetMaterializedRaw toggles materialization state without incremental
// propagation; the caller is responsible for calling Recost. It exists for
// the §6.3 ablation that disables incremental cost update, and for tests.
func (pd *DAG) SetMaterializedRaw(n *Node, on bool) {
	cs := &pd.costing
	if cs.mat[n.Topo] == on {
		return
	}
	cs.mat[n.Topo] = on
	cs.dirty = true
	mats := &pd.groups[n.gi].mats
	if on {
		*mats = append(*mats, n)
		cs.matList = insertTopo(cs.matList, n)
		return
	}
	*mats = removeNode(*mats, n)
	cs.matList = removeNode(cs.matList, n)
}

// BestCostWith computes bestcost(Q, S) for an explicit set S with a full
// from-scratch costing pass, leaving the costing state as it found it. It
// is the non-incremental reference implementation used by tests and by the
// greedy ablation with incremental update disabled.
func (pd *DAG) BestCostWith(set []*Node) cost.Cost {
	saved := pd.MaterializedSet()
	for _, m := range saved {
		pd.SetMaterializedRaw(m, false)
	}
	for _, m := range set {
		pd.SetMaterializedRaw(m, true)
	}
	pd.Recost()
	total := pd.TotalCost()
	for _, m := range set {
		pd.SetMaterializedRaw(m, false)
	}
	for _, m := range saved {
		pd.SetMaterializedRaw(m, true)
	}
	pd.Recost()
	return total
}

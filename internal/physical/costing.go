package physical

import (
	"math"
	"math/bits"

	"mqo/internal/cost"
)

// costState tracks the set of materialized nodes and the node costs under
// it, and supports full and incremental recosting of the DAG (paper
// Figure 5) and what-ifs that roll back (Mark, Rollback). Everything is an
// array over the flat layout (flatDAG): costs by Node.Topo, membership by
// group bitmask word.
type costState struct {
	cost []cost.Cost // by Node.Topo: the node's computation cost under the set
	mat  []uint64    // by group bitmask word: the members
	// setAt[t] orders the members of one group by when they were set, the
	// order plan extraction picks the first usable one in (firstUsableMat).
	// Valid for members only; Reset restarts the count.
	setAt []uint32
	sets  uint32
	// matList is the materialized set in topological order. Cost totals sum
	// over this list, never over mat: float64 addition is not associative,
	// so the order of the sum is part of the result — a different order
	// could move a total by an ulp, enough to flip a near-tie greedy pick
	// and change the plan.
	matList []*Node

	front   front   // SetMaterialized's propagation front, empty between calls
	journal journal // what SetMaterialized overwrote since Mark

	// dirty is set by everything that can move a node's cost off what a full
	// pass under the empty materialized set gives — a materialization, arming,
	// Disarm — and cleared by such a pass (Recost with nothing materialized).
	// Reset skips the pass while it is clear.
	dirty bool

	// Counters for the Figure 10 / §6.3 experiments.
	Propagations   int64 // nodes popped from the propagation front
	Recomputations int64 // incremental UpdateCost invocations
}

// journal records what SetMaterialized overwrites between DAG.Mark and
// DAG.Rollback, so that Rollback can put it back bit for bit: each node's
// cost before its first write, and each membership toggle with the node's
// setAt before it. The counters are not journaled: a what-if's work counts.
type journal struct {
	marked bool
	sets   uint32 // costState.sets at Mark
	dirty  bool   // costState.dirty at Mark
	// at[t] is 1 + the place of node t's entry in costs, 0 while it has
	// none. It is made at the DAG's first Mark: a DAG that runs no what-if
	// never pays for it.
	at      []int32 // by Node.Topo
	costs   []oldCost
	toggles []toggle
}

type oldCost struct {
	t   int32
	old cost.Cost
}

type toggle struct {
	n     *Node
	setAt uint32
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
	nodes := len(pd.Nodes)
	pd.costing = costState{
		cost:  make([]cost.Cost, nodes),
		mat:   make([]uint64, pd.flat.groupWords),
		setAt: make([]uint32, nodes),
		front: newFront(nodes, len(pd.flat.exprs)-1),
	}
	pd.Recost()
}

// bit returns node t's word in a group bitmask array and its bit there.
func (f *flatDAG) bit(t int) (int32, uint64) {
	n := &f.nodes[t]
	return n.matLo + n.slot/64, 1 << (n.slot % 64)
}

// Materialized reports whether n is currently materialized.
func (pd *DAG) Materialized(n *Node) bool {
	w, b := pd.flat.bit(n.Topo)
	return pd.costing.mat[w]&b != 0
}

// MaterializedSet returns the current set of materialized nodes, in
// topological order.
func (pd *DAG) MaterializedSet() []*Node {
	return append([]*Node(nil), pd.costing.matList...)
}

// CostOf returns n's current computation cost under the materialized set.
// It is the search's scratch: every optimization run on the DAG rewrites
// it, and a DAG outlives the optimization it was built for (a session keeps
// it to run the next one on). What a plan reports is PlanNode.Cost.
func (pd *DAG) CostOf(n *Node) cost.Cost { return pd.costing.cost[n.Topo] }

// NumParents returns the number of operation nodes that read n as an input.
func (pd *DAG) NumParents(n *Node) int {
	return int(pd.flat.nodes[n.Topo+1].parLo - pd.flat.nodes[n.Topo].parLo)
}

// Counters returns the (propagations, recomputations) instrumentation.
func (pd *DAG) Counters() (int64, int64) {
	return pd.costing.Propagations, pd.costing.Recomputations
}

// ResetCounters zeroes the instrumentation counters.
func (pd *DAG) ResetCounters() {
	pd.costing.Propagations, pd.costing.Recomputations = 0, 0
}

// The costing primitives below are the single implementation of the
// paper's C(e)/cost recurrences used by full passes, propagation, the
// what-if benefits and plan extraction. Nodes are named by topological
// number and operation nodes by id, and every read is of the flat arrays
// (flatDAG).

// serveMask returns word k (counted from the group's first) of the mask of
// the members of c's group that may serve input c, whose flat entry is cn,
// of an operation node owned by owner: the nodes whose property satisfies
// c's, except that owner itself never does (a node must not account its own
// materialization while computing its own cost), and that only c does when
// the consumer is an enforcer of c's own group (allowing a sibling would
// let two sibling materializations cyclically claim to derive from each
// other). ANDed with the materialized set, it is the single reuse rule
// behind both costing (reusableBy) and plan extraction (firstUsableMat), so
// extracted plans always match the costs computed for them.
func (f *flatDAG) serveMask(cn *flatNode, c, owner int, k int32) uint64 {
	if f.nodes[owner].gi != cn.gi {
		return f.sat[cn.satLo+k]
	}
	// c satisfies its own property: its own bit is all that may serve.
	if owner == c || k != cn.slot/64 {
		return 0
	}
	return 1 << (cn.slot % 64)
}

// reusableBy reports whether some materialized node of c's logical group
// can serve c's requirement for a consumer owned by owner.
func (pd *DAG) reusableBy(cn *flatNode, c, owner int) bool {
	f := &pd.flat
	for k := range cn.words {
		if w := pd.costing.mat[cn.matLo+k]; w != 0 && w&f.serveMask(cn, c, owner, k) != 0 {
			return true
		}
	}
	return false
}

// firstUsableMat returns the materialized node that plan extraction links
// input c of consumer owner to, or nil: of the members that may serve it
// (serveMask), the first set.
func (pd *DAG) firstUsableMat(c, owner *Node) *Node {
	f := &pd.flat
	cs := &pd.costing
	cn := &f.nodes[c.Topo]
	var first *Node
	for k := range cn.words {
		for w := cs.mat[cn.matLo+k] & f.serveMask(cn, c.Topo, owner.Topo, k); w != 0; w &= w - 1 {
			m := pd.groups[cn.gi].nodes[k*64+int32(bits.TrailingZeros64(w))]
			if first == nil || cs.setAt[m.Topo] < cs.setAt[first.Topo] {
				first = m
			}
		}
	}
	return first
}

// childCost is the paper's C(e): the cost of input c as seen by a consuming
// operator owned by owner — min(cost, reusecost) when a satisfying
// materialization exists.
func (pd *DAG) childCost(c, owner int) cost.Cost {
	cc := pd.costing.cost[c]
	if cn := &pd.flat.nodes[c]; cn.reuse < cc && pd.reusableBy(cn, c, owner) {
		return cn.reuse
	}
	return cc
}

// exprCost computes the cost of operation node x under the materialized
// set — unless a partial sum reaches bound first, when it returns that
// partial sum instead. Every term is non-negative (operator
// costs, and weights times input costs), and adding a non-negative float
// never lowers a sum, so the cost is then at or above bound too: a caller
// that only asks whether the cost is below bound gets the full sum's answer.
func (pd *DAG) exprCost(x int32, bound cost.Cost) cost.Cost {
	f := &pd.flat
	e := &f.exprs[x]
	owner := int(e.owner)
	total := e.op
	for _, c := range f.kids[e.kidLo:f.exprs[x+1].kidLo] {
		if total >= bound {
			break
		}
		total += e.w * pd.childCost(int(c), owner)
	}
	return total
}

// nodeCost computes min over the node's operation nodes.
func (pd *DAG) nodeCost(n *Node) cost.Cost {
	best := unpriced
	for _, e := range n.Exprs {
		if c := pd.exprCost(e.id, best); c < best {
			best = c
		}
	}
	return best
}

// unpriced is the bound of an operation node's first pricing: none.
var unpriced = cost.Cost(math.Inf(1))

// Recost performs a full bottom-up costing pass in topological order. It
// first lays the DAG out again if arming or Disarm left the layout stale.
func (pd *DAG) Recost() {
	if pd.flat.stale {
		pd.flatten()
		pd.costing.front.fit(int(pd.numExprs))
	}
	for t, n := range pd.Nodes {
		pd.costing.cost[t] = pd.nodeCost(n)
	}
	pd.costing.dirty = len(pd.costing.matList) > 0
}

// Reset returns the costing state to the one Build left — nothing
// materialized, every cost what a full pass gives then, zero counters, an
// empty journal — plus what the result cache armed since Disarm. It
// runs that pass only when something moved a cost since the last one: a DAG
// straight from Build, or reset already, is left as it is. Sharable flags are
// left too; the greedy search sets every one before it reads any. The next
// NewDraft returns the first of the DAG's two drafts, so a search that
// needs one draft always builds on the same storage.
func (pd *DAG) Reset() {
	pd.drafts.next = 0
	cs := &pd.costing
	for _, m := range cs.matList {
		k, _ := pd.flat.bit(m.Topo)
		cs.mat[k] = 0
	}
	cs.matList, cs.sets = cs.matList[:0], 0
	cs.journal.forget()
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
	cs := &pd.costing
	total := cs.cost[pd.Root.Topo]
	for _, m := range cs.matList {
		total += cs.cost[m.Topo] + m.MatCost
	}
	return total
}

// front is a propagation's frontier over topological numbers, with a list
// per node of its operation nodes whose input moved in the propagation.
// Every node it holds is a parent of one already popped, or a seed, and
// parents follow their inputs in topological order, so popping the lowest
// set bit pops in ascending order — the order Figure 5 needs to process
// each node once, after all its inputs — with a scan that only moves
// forward.
type front struct {
	words []uint64 // by Node.Topo/64: the nodes waiting to be re-examined
	lo    int      // no word before lo holds a bit
	size  int      // bits set
	// head[t] is 1 + the first operation node on node t's moved list, 0 for
	// an empty list; next[x] is 1 + the operation node after x on its list,
	// -1 after the last, 0 when x is on no list. Popping a node empties its
	// list, so between propagations every entry is 0.
	head []int32 // by Node.Topo
	next []int32 // by PExpr.id
}

func newFront(nodes, exprs int) front {
	return front{words: make([]uint64, (nodes+63)/64), head: make([]int32, nodes), next: make([]int32, exprs)}
}

// fit extends the moved-list links to cover exprs operation nodes: the
// result cache may have armed alternatives since the front was made. The
// links are all 0 between propagations, so new ones need no copy of the old.
func (f *front) fit(exprs int) {
	if len(f.next) < exprs {
		f.next = make([]int32, exprs)
	}
}

func (f *front) add(t int) {
	k, b := t/64, uint64(1)<<(t%64)
	if f.words[k]&b != 0 {
		return
	}
	f.words[k] |= b
	f.size++
	f.lo = min(f.lo, k)
}

// pop removes and returns the lowest node of a non-empty front.
func (f *front) pop() int {
	for f.words[f.lo] == 0 {
		f.lo++
	}
	w := f.words[f.lo]
	f.words[f.lo] = w & (w - 1)
	f.size--
	return f.lo*64 + bits.TrailingZeros64(w)
}

// moved puts operation node x, owned by node t, on t's moved list.
func (f *front) moved(x int32, t int) {
	if f.next[x] != 0 {
		return
	}
	if f.next[x] = f.head[t]; f.next[x] == 0 {
		f.next[x] = -1
	}
	f.head[t] = x + 1
}

// propagate is the paper's incremental cost update (Figure 5) after n's
// materialization was toggled, to on when on is set: seed with the nodes of
// n's group whose consumers may now see a different input cost (the changed
// set S△S′), then walk upward in topological order so no node is processed
// twice. It returns the number of nodes re-examined.
//
// A node is re-examined when one of its inputs moved. After a
// materialization is turned off, each is re-costed in full (nodeCost). One
// turned on can only lower costs — C(e) gains a reuse option and loses none,
// and OpCost + w·x with w ≥ 0 is monotone in floats — so a node's operation
// nodes with no moved input keep their cost, and its new cost is the least
// of its old one and those of the operation nodes on its moved list
// (lowerCost): the value nodeCost would return, bit for bit, for a fraction
// of the work.
func (pd *DAG) propagate(n *Node, on bool) int {
	f := &pd.flat
	cs := &pd.costing
	fr := &cs.front
	for _, s := range pd.siblings(n) {
		if f.serves(n.Topo, s.Topo) {
			fr.add(s.Topo)
		}
	}
	gi := f.nodes[n.Topo].gi
	touched := 0
	for fr.size > 0 {
		t := fr.pop()
		touched++
		old := cs.cost[t]
		if cs.journal.marked {
			cs.journal.cost(t, old)
		}
		if on {
			cs.cost[t] = pd.lowerCost(fr, t, old)
		} else {
			cs.cost[t] = pd.nodeCost(pd.Nodes[t])
		}
		// A seed's consumers are visited even when its own cost stands:
		// what changed for them is whether they can reuse it.
		if cs.cost[t] != old || (f.nodes[t].gi == gi && f.serves(n.Topo, t)) {
			for _, x := range f.parents[f.nodes[t].parLo:f.nodes[t+1].parLo] {
				owner := int(f.exprs[x].owner)
				if on {
					fr.moved(x, owner)
				}
				fr.add(owner)
			}
		}
	}
	return touched
}

// lowerCost is nodeCost after an addition to the materialized set, given
// node t's cost old before it: the operation nodes on t's moved list are
// re-priced, the others keep the cost old already accounts for (see
// propagate). It empties the list.
func (pd *DAG) lowerCost(fr *front, t int, old cost.Cost) cost.Cost {
	best := old
	x := fr.head[t] - 1
	fr.head[t] = 0
	for x >= 0 {
		if ec := pd.exprCost(x, best); ec < best {
			best = ec
		}
		after := fr.next[x]
		fr.next[x] = 0
		x = after - 1
	}
	return best
}

// SetMaterialized toggles the materialization status of n and incrementally
// propagates the cost change to affected ancestors (propagate). It returns
// the number of nodes whose cost was re-examined.
func (pd *DAG) SetMaterialized(n *Node, on bool) int {
	cs := &pd.costing
	if pd.Materialized(n) == on {
		return 0
	}
	pd.SetMaterializedRaw(n, on)
	cs.Recomputations++
	touched := pd.propagate(n, on)
	cs.Propagations += int64(touched)
	return touched
}

// SetMaterializedRaw toggles materialization state without incremental
// propagation; the caller is responsible for calling Recost. It exists for
// the §6.3 ablation that disables incremental cost update, and for tests.
func (pd *DAG) SetMaterializedRaw(n *Node, on bool) {
	cs := &pd.costing
	if pd.Materialized(n) == on {
		return
	}
	if cs.journal.marked {
		cs.journal.toggles = append(cs.journal.toggles, toggle{n, cs.setAt[n.Topo]})
	}
	k, b := pd.flat.bit(n.Topo)
	cs.mat[k] ^= b
	cs.dirty = true
	if on {
		cs.sets++
		cs.setAt[n.Topo] = cs.sets
		cs.matList = insertTopo(cs.matList, n)
		return
	}
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

// Mark starts a what-if: from here until Rollback, the journal records what
// SetMaterialized overwrites. Only SetMaterialized and SetMaterializedRaw may
// change the costing state before the Rollback (no Recost, no arming).
func (pd *DAG) Mark() {
	cs := &pd.costing
	j := &cs.journal
	j.forget()
	if j.at == nil {
		j.at = make([]int32, len(pd.Nodes))
	}
	j.marked, j.sets, j.dirty = true, cs.sets, cs.dirty
}

// Rollback puts the costing state back as Mark found it, bit for bit: node
// costs, the bitmask words, matList, setAt, sets and dirty. The counters keep
// the span's work. Without a Mark since the last Rollback or Reset it does
// nothing.
func (pd *DAG) Rollback() {
	cs := &pd.costing
	j := &cs.journal
	if !j.marked {
		return
	}
	for i := len(j.toggles) - 1; i >= 0; i-- {
		n := j.toggles[i].n
		k, b := pd.flat.bit(n.Topo)
		if cs.mat[k] ^= b; cs.mat[k]&b != 0 {
			cs.matList = insertTopo(cs.matList, n)
		} else {
			cs.matList = removeNode(cs.matList, n)
		}
		cs.setAt[n.Topo] = j.toggles[i].setAt
	}
	for _, e := range j.costs {
		cs.cost[e.t] = e.old
	}
	cs.sets, cs.dirty = j.sets, j.dirty
	j.forget()
}

// cost records node t's cost old before the span's first write of it.
func (j *journal) cost(t int, old cost.Cost) {
	if j.at[t] == 0 {
		j.costs = append(j.costs, oldCost{int32(t), old})
		j.at[t] = int32(len(j.costs))
	}
}

// delta is node t's cost at Mark less its cost now: 0 for a node the span
// has not written.
func (pd *DAG) delta(t int) cost.Cost {
	if i := pd.costing.journal.at[t]; i > 0 {
		return pd.costing.journal.costs[i-1].old - pd.costing.cost[t]
	}
	return 0
}

// forget empties the journal and ends the span.
func (j *journal) forget() {
	for _, e := range j.costs {
		j.at[e.t] = 0
	}
	j.costs, j.toggles, j.marked = j.costs[:0], j.toggles[:0], false
}

// WhatIfBenefit computes bestcost(Q, S) - bestcost(Q, S ∪ {n}), the benefit
// of additionally materializing n: it materializes n inside a Mark, reads
// the benefit off the journal and rolls back.
//
// The benefit is computed in DELTA form — the sum, in topological order,
// of (old - new) over exactly the terms of TotalCost the wave changed,
// minus the new member's computation and materialization cost — rather
// than as a subtraction of two full TotalCost sums. In real arithmetic the
// two are identical; in floats they round differently, and the order of a
// sum is part of its result: near-tied candidates rank by these bits, so
// the greedy picks — and the golden plan snapshots that lock them — are
// bit-equal only with this summation order.
func (pd *DAG) WhatIfBenefit(n *Node) cost.Cost {
	if pd.Materialized(n) {
		return 0
	}
	pd.Mark()
	pd.SetMaterialized(n, true)
	cs := &pd.costing
	ben := pd.delta(pd.Root.Topo)
	for _, m := range cs.matList {
		if m != n {
			ben += pd.delta(m.Topo)
		}
	}
	ben -= cs.cost[n.Topo] + n.MatCost
	pd.Rollback()
	return ben
}

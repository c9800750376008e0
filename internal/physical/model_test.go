package physical

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// A what-if overlay over a snapshot of the DAG's costing state, kept as the
// model a Mark span on the DAG is held to: the materialized-set delta, the
// cost overrides, the heap membership and the forced seeds are Go maps keyed
// by node and group pointers. It shares the DAG's nodes, copies their costs
// when the span starts (snapshot) and mirrors the committed materialized set
// itself, in mapBase.

type mapBase struct {
	mat     map[*Node]bool
	byGroup map[*dag.Group][]*Node
	list    []*Node
}

func (b *mapBase) toggle(n *Node, on bool) {
	if on {
		b.mat[n] = true
		b.byGroup[n.LG] = append(b.byGroup[n.LG], n)
		b.list = insertTopo(b.list, n)
		return
	}
	delete(b.mat, n)
	b.byGroup[n.LG] = removeNode(b.byGroup[n.LG], n)
	b.list = removeNode(b.list, n)
}

type mapHeap struct {
	items  []*Node
	inHeap map[*Node]bool
}

func (h *mapHeap) Len() int           { return len(h.items) }
func (h *mapHeap) Less(i, j int) bool { return h.items[i].Topo < h.items[j].Topo }
func (h *mapHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mapHeap) Push(x interface{}) { h.items = append(h.items, x.(*Node)) }
func (h *mapHeap) Pop() interface{} {
	n := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return n
}

func (h *mapHeap) add(n *Node) {
	if !h.inHeap[n] {
		h.inHeap[n] = true
		heap.Push(h, n)
	}
}

func (h *mapHeap) pop() *Node {
	n := heap.Pop(h).(*Node)
	delete(h.inHeap, n)
	return n
}

type mapView struct {
	pd       *DAG
	base     *mapBase
	baseCost []cost.Cost // by Node.Topo, the DAG's at the last snapshot

	over       map[*Node]cost.Cost
	matAdd     map[*Node]bool
	matDel     map[*Node]bool
	addByGroup map[*dag.Group][]*Node
	addList    []*Node

	heap    mapHeap
	forced  map[*Node]bool
	readers map[*Node][]*Node // the owners of the operation nodes reading a node
}

func newMapView(pd *DAG, base *mapBase) *mapView {
	return &mapView{
		pd: pd, base: base, baseCost: slices.Clone(pd.costing.cost),
		over:       map[*Node]cost.Cost{},
		matAdd:     map[*Node]bool{},
		matDel:     map[*Node]bool{},
		addByGroup: map[*dag.Group][]*Node{},
		heap:       mapHeap{inHeap: map[*Node]bool{}},
		forced:     map[*Node]bool{},
		readers:    readersOf(pd),
	}
}

func readersOf(pd *DAG) map[*Node][]*Node {
	readers := map[*Node][]*Node{}
	for _, n := range pd.Nodes {
		for _, e := range n.Exprs {
			for _, c := range e.Children {
				readers[c] = append(readers[c], n)
			}
		}
	}
	return readers
}

// snapshot copies the DAG's costs as the base, after a commit.
func (v *mapView) snapshot() { v.baseCost = slices.Clone(v.pd.costing.cost) }

func (v *mapView) costIn(n *Node) cost.Cost {
	if c, ok := v.over[n]; ok {
		return c
	}
	return v.baseCost[n.Topo]
}

func (v *mapView) matIn(n *Node) bool {
	if v.matDel[n] {
		return false
	}
	return v.matAdd[n] || v.base.mat[n]
}

func (v *mapView) firstUsableMat(c, owner *Node) *Node {
	sameGroup := owner != nil && owner.LG == c.LG
	usable := func(m *Node) bool {
		if m == owner || (sameGroup && m != c) {
			return false
		}
		return m.Prop.Satisfies(c.Prop)
	}
	for _, m := range v.base.byGroup[c.LG] {
		if v.matDel[m] {
			continue
		}
		if usable(m) {
			return m
		}
	}
	for _, m := range v.addByGroup[c.LG] {
		if usable(m) {
			return m
		}
	}
	return nil
}

func (v *mapView) childCost(c, owner *Node) cost.Cost {
	cc := v.costIn(c)
	if c.ReuseSeq < cc && v.firstUsableMat(c, owner) != nil {
		return c.ReuseSeq
	}
	return cc
}

func (v *mapView) nodeCost(n *Node) cost.Cost {
	best := cost.Cost(0)
	for i, e := range n.Exprs {
		c := e.OpCost
		for _, k := range e.Children {
			c += e.Weight() * v.childCost(k, e.Node)
		}
		if i == 0 || c < best {
			best = c
		}
	}
	return best
}

func (v *mapView) setMaterialized(n *Node, on bool) int {
	if v.matIn(n) == on {
		return 0
	}
	base := v.base.mat[n]
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
	h := &v.heap
	for _, s := range v.pd.NodesOf(n.LG) {
		if n.Prop.Satisfies(s.Prop) {
			v.forced[s] = true
			h.add(s)
		}
	}
	touched := 0
	for h.Len() > 0 {
		cur := h.pop()
		touched++
		old := v.costIn(cur)
		next := v.nodeCost(cur)
		v.over[cur] = next
		if next != old || v.forced[cur] {
			for _, p := range v.readers[cur] {
				h.add(p)
			}
		}
	}
	clear(v.forced)
	return touched
}

// totalCost sums the root and the members, the base's and the added ones
// merged into one topological list, as DAG.TotalCost does.
func (v *mapView) totalCost() cost.Cost {
	var list []*Node
	for _, m := range v.base.list {
		if !v.matDel[m] {
			list = append(list, m)
		}
	}
	for _, m := range v.addList {
		list = insertTopo(list, m)
	}
	total := v.costIn(v.pd.Root)
	for _, m := range list {
		total += v.costIn(m) + m.MatCost
	}
	return total
}

func (v *mapView) reset() {
	clear(v.over)
	clear(v.matAdd)
	clear(v.matDel)
	clear(v.addByGroup)
	v.addList = v.addList[:0]
}

func (v *mapView) whatIf(n *Node) cost.Cost {
	pd := v.pd
	if v.matIn(n) {
		return 0
	}
	v.setMaterialized(n, true)
	ben := cost.Cost(0)
	if c, ok := v.over[pd.Root]; ok {
		ben += v.baseCost[pd.Root.Topo] - c
	}
	for _, m := range v.base.list {
		if c, ok := v.over[m]; ok {
			ben += v.baseCost[m.Topo] - c
		}
	}
	ben -= v.costIn(n) + n.MatCost
	v.reset()
	return ben
}

// nestedTrees are a nested query — an Invoke over a parameterized body —
// and a chain sharing its invariant join.
func nestedTrees() []*algebra.Tree {
	inner := algebra.SelectT(algebra.CmpParam(algebra.Col("B", "num"), algebra.EQ, "x"),
		algebra.JoinT(algebra.ColEq(algebra.Col("A", "fk"), algebra.Col("B", "id")),
			algebra.ScanT("A"), algebra.ScanT("B")))
	return []*algebra.Tree{algebra.NewTree(algebra.Invoke{Times: 40}, inner), chain([]string{"A", "B", "C"}, 50)}
}

// armedDAG is the DAG of nestedTrees with the result cache's two kinds of
// armed alternative added by hand: CacheScans on a few nodes and an
// InvokePartial beside the Invoke.
func armedDAG(t *testing.T) *DAG {
	pd := buildDAG(t, nestedTrees()...)
	scans, partials := 0, 0
	for _, n := range pd.Nodes {
		switch e := n.Exprs[0]; {
		case e.Kind == InvokeOp:
			pd.ArmInvokePartial(n, e.LE, e.Children[0], e.Weight()/4, pd.CostOf(n)/8,
				[]BindScan{{Bind: "x=1", Table: "b1"}}, []string{"x=2"}, "fp")
			partials++
		case e.Kind == BNLJoin && !n.LG.ParamDep && scans < 3:
			pd.ArmCacheScan(n, "c", n.ReuseSeq, cost.TierRAM)
			scans++
		}
	}
	if scans == 0 || partials == 0 {
		t.Fatalf("armed %d cache scans and %d partial invokes", scans, partials)
	}
	pd.Recost()
	return pd
}

// TestWhatIfSpanMatchesMapModel drives Mark spans on the DAG and the map
// overlay through one seeded sequence — toggles kept inside a span,
// what-ifs, rollbacks, commits on the DAG between spans — and holds them to
// each other exactly: re-examined counts, every node's cost and membership,
// totals and benefits by ==.
func TestWhatIfSpanMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *DAG
	}{
		{"BQ5", func(t *testing.T) *DAG { return buildOver(t, tpcd.Catalog(1), tpcd.BatchQueries(5)) }},
		{"CQ3", func(t *testing.T) *DAG { return buildOver(t, psp.Catalog(1), psp.CQ(3)) }},
		{"armed", armedDAG},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pd := tc.build(t)
			cands := whatIfCandidates(pd)
			base := &mapBase{mat: map[*Node]bool{}, byGroup: map[*dag.Group][]*Node{}}
			model := newMapView(pd, base)
			rng := rand.New(rand.NewSource(21))

			same := func(step int, what string) {
				t.Helper()
				if got, want := pd.TotalCost(), model.totalCost(); got != want {
					t.Fatalf("step %d (%s): total %v, model %v", step, what, got, want)
				}
				for _, n := range pd.Nodes {
					if got, want := pd.CostOf(n), model.costIn(n); got != want {
						t.Fatalf("step %d (%s): node %d cost %v, model %v", step, what, n.ID, got, want)
					}
					if got, want := pd.Materialized(n), model.matIn(n); got != want {
						t.Fatalf("step %d (%s): node %d materialized %v, model %v", step, what, n.ID, got, want)
					}
				}
			}
			inSpan := false
			pristine := func(step int) {
				if inSpan {
					pd.Rollback()
					inSpan = false
				}
				model.reset()
				same(step, "rollback")
			}

			const steps = 400
			for step := 0; step < steps; step++ {
				n := cands[rng.Intn(len(cands))]
				switch op := rng.Intn(9); {
				case op < 4: // a toggle that stays in the span
					if !inSpan {
						pd.Mark()
						inSpan = true
					}
					on := !model.matIn(n)
					if got, want := pd.SetMaterialized(n, on), model.setMaterialized(n, on); got != want {
						t.Fatalf("step %d: re-examined %d nodes, model %d", step, got, want)
					}
					same(step, "toggle")
				case op < 8:
					pristine(step)
					want := model.whatIf(n)
					if got := pd.WhatIfBenefit(n); got != want {
						t.Fatalf("step %d: benefit of node %d %v, model %v", step, n.ID, got, want)
					}
					same(step, "what-if")
				default: // a commit on the DAG, between spans
					pristine(step)
					on := !pd.Materialized(n)
					pd.SetMaterialized(n, on)
					base.toggle(n, on)
					if got, want := pd.TotalCost(), pd.BestCostWith(pd.MaterializedSet()); !cost.Eq(got, want) {
						t.Fatalf("step %d: committed total %v, from scratch %v", step, got, want)
					}
					model.snapshot()
					same(step, "commit")
				}
			}
		})
	}
}

// TestWhatIfAllocatesNothing: once the DAG's journal has been through a
// wave, its arrays and lists are as large as that wave needs, and the next
// wave's what-ifs allocate nothing.
func TestWhatIfAllocatesNothing(t *testing.T) {
	pd := buildOver(t, tpcd.Catalog(1), tpcd.BatchQueries(5))
	cands := whatIfCandidates(pd)
	wave := func() {
		for _, n := range cands {
			pd.WhatIfBenefit(n)
		}
	}
	wave()
	if allocs := testing.AllocsPerRun(3, wave); allocs != 0 {
		t.Errorf("a wave of %d what-ifs allocated %.0f times", len(cands), allocs)
	}
}

// buildOver expands queries over cat and builds the physical DAG.
func buildOver(tb testing.TB, cat *catalog.Catalog, queries []*algebra.Tree) *DAG {
	tb.Helper()
	pd, err := Build(expandLogical(tb, cat, queries), cost.DefaultModel())
	if err != nil {
		tb.Fatal(err)
	}
	return pd
}

// expandLogical is the logical half of a batch's optimization: insert,
// expand, subsume, expand again, finalize.
func expandLogical(tb testing.TB, cat *catalog.Catalog, queries []*algebra.Tree) *dag.DAG {
	tb.Helper()
	ld := dag.New(cost.Estimator{Cat: cat})
	for _, q := range queries {
		if _, err := ld.AddQuery(q); err != nil {
			tb.Fatal(err)
		}
	}
	for _, step := range []func() error{ld.Expand, ld.Subsume, ld.Expand} {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := ld.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return ld
}

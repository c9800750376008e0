package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, n := range []string{"A", "B", "C", "D"} {
		cat.Add(&catalog.Table{
			Name: n,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", 10000),
				catalog.IntCol("fk", 1000),
				catalog.IntColRange("num", 100, 1, 100),
			},
			Rows:    10000,
			Indexes: []catalog.IndexDef{{Column: "id", Clustered: true}},
		})
	}
	return cat
}

func buildDAG(t *testing.T, queries ...*algebra.Tree) *DAG {
	t.Helper()
	return buildOver(t, testCatalog(), queries)
}

func chain(tables []string, selConst int64) *algebra.Tree {
	t := algebra.SelectT(algebra.Cmp(algebra.Col(tables[0], "num"), algebra.GE, algebra.IntVal(selConst)),
		algebra.ScanT(tables[0]))
	for i := 1; i < len(tables); i++ {
		pred := algebra.ColEq(algebra.Col(tables[i-1], "fk"), algebra.Col(tables[i], "id"))
		t = algebra.JoinT(pred, t, algebra.ScanT(tables[i]))
	}
	return t
}

func TestPropSatisfies(t *testing.T) {
	a, b := algebra.Col("r", "a"), algebra.Col("r", "b")
	cases := []struct {
		p, r Prop
		want bool
	}{
		{AnyProp(), AnyProp(), true},
		{SortProp(a), AnyProp(), true},
		{AnyProp(), SortProp(a), false},
		{SortProp(a, b), SortProp(a), true},
		{SortProp(a), SortProp(a, b), false},
		{SortProp(b), SortProp(a), false},
		{IndexProp(a), IndexProp(a), true},
		{IndexProp(a), IndexProp(b), false},
		{SortProp(a), IndexProp(a), false},
		{IndexProp(a), AnyProp(), true},
		{IndexProp(a), SortProp(a), false},
	}
	for i, c := range cases {
		if got := c.p.Satisfies(c.r); got != c.want {
			t.Errorf("case %d: %s.Satisfies(%s) = %v, want %v", i, c.p, c.r, got, c.want)
		}
	}
}

func TestBuildTopologicalOrder(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50))
	for _, n := range pd.Nodes {
		for _, e := range n.Exprs {
			for _, c := range e.Children {
				if c.Topo >= n.Topo {
					t.Fatalf("topology violated: child %d (topo %d) not before parent %d (topo %d)",
						c.ID, c.Topo, n.ID, n.Topo)
				}
			}
		}
	}
	if pd.Root.Topo != len(pd.Nodes)-1 && pd.Root != pd.Nodes[len(pd.Nodes)-1] {
		// Root must be last in the order when reachable stragglers exist.
		t.Log("root not last; acceptable only if query-root-only nodes trail")
	}
}

func TestEveryNodeHasImplementation(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C", "D"}, 50))
	for _, n := range pd.Nodes {
		if len(n.Exprs) == 0 {
			t.Fatalf("node %d (%s) has no implementations", n.ID, n.Prop)
		}
		if pd.CostOf(n) < 0 {
			t.Fatalf("node %d has negative cost", n.ID)
		}
	}
}

func TestCostingPositiveAndMonotoneAtRoot(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	if pd.CostOf(pd.Root) <= 0 {
		t.Fatal("root cost must be positive")
	}
	base := pd.TotalCost()
	// Materializing anything can only be modeled; TotalCost accounts for
	// the extra materialization cost, so it may go up or down, but Root
	// computation cost alone can never increase.
	for _, n := range pd.Nodes[:len(pd.Nodes)/2] {
		rootBefore := pd.CostOf(pd.Root)
		pd.SetMaterialized(n, true)
		if pd.CostOf(pd.Root) > rootBefore+1e-9 {
			t.Fatalf("materializing node %d increased root computation cost", n.ID)
		}
		pd.SetMaterialized(n, false)
	}
	if got := pd.TotalCost(); got != base {
		t.Fatalf("toggling all nodes off did not restore cost: %v vs %v", got, base)
	}
}

// TestIncrementalMatchesScratch is the central §4.2 correctness property:
// incremental cost update — a full re-cost of every node the propagation
// reaches when a materialization goes, the decrease-only update when one
// comes — leaves every node at the cost a from-scratch Recost gives the same
// materialized set, to the bit. A seeded sequence toggles nodes on the DAG,
// committed or inside Mark spans that are rolled back; after each step a twin
// DAG, built the same way, is given the same set and re-costed from scratch.
func TestIncrementalMatchesScratch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *DAG
	}{
		{"BQ5", func(t *testing.T) *DAG { return buildOver(t, tpcd.Catalog(1), tpcd.BatchQueries(5)) }},
		{"CQ3", func(t *testing.T) *DAG { return buildOver(t, psp.Catalog(1), psp.CQ(3)) }},
		{"armed", armedDAG},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pd, twin := tc.build(t), tc.build(t)
			for i, n := range pd.Nodes {
				if m := twin.Nodes[i]; m.ID != n.ID || len(m.Exprs) != len(n.Exprs) {
					t.Fatalf("twin node %d is node %d with %d operation nodes, want node %d with %d",
						i, m.ID, len(m.Exprs), n.ID, len(n.Exprs))
				}
			}
			cands := whatIfCandidates(pd)
			rng := rand.New(rand.NewSource(7))

			scratch := func(step int, where string) {
				t.Helper()
				for i, n := range pd.Nodes {
					twin.SetMaterializedRaw(twin.Nodes[i], pd.Materialized(n))
				}
				twin.Recost()
				for i, n := range pd.Nodes {
					if got, want := pd.CostOf(n), twin.CostOf(twin.Nodes[i]); got != want {
						t.Fatalf("step %d (%s): node %d cost %v, from scratch %v", step, where, n.ID, got, want)
					}
				}
			}

			const steps = 300
			ons, offs := 0, 0
			inSpan := false
			var before costingSnapshot
			for step := 0; step < steps; step++ {
				n := cands[rng.Intn(len(cands))]
				if rng.Intn(3) == 0 {
					// A commit, after rolling back the span open before it.
					if inSpan {
						pd.Rollback()
						inSpan = false
						if diff := sameCosting(pd, before); diff != "" {
							t.Fatalf("step %d: Rollback left the %s changed", step, diff)
						}
					}
				} else if !inSpan {
					before = snapshotCosting(pd)
					pd.Mark()
					inSpan = true
				}
				on := !pd.Materialized(n)
				pd.SetMaterialized(n, on)
				where := "committed"
				if inSpan {
					where = "in a span"
				}
				scratch(step, where)
				if on {
					ons++
				} else {
					offs++
				}
			}
			if ons == 0 || offs == 0 {
				t.Fatalf("%d toggles on and %d off: the sequence checks one rule only", ons, offs)
			}
		})
	}
}

func TestMergeJoinUsesSortedInputs(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B"}, 50))
	var mjs int
	for _, n := range pd.Nodes {
		for _, e := range n.Exprs {
			if e.Kind == MergeJoin {
				mjs++
				for _, c := range e.Children {
					if len(c.Prop.Sort) == 0 {
						t.Error("merge join child lacks sort property")
					}
				}
			}
		}
	}
	if mjs == 0 {
		t.Error("no merge join generated for equijoin")
	}
}

func TestIndexJoinOnBaseIndex(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B"}, 50))
	var ij int
	for _, n := range pd.Nodes {
		for _, e := range n.Exprs {
			if e.Kind == IndexJoin {
				ij++
				inner := e.Children[1]
				if !inner.Prop.HasIx {
					t.Error("index join inner lacks index property")
				}
			}
		}
	}
	if ij == 0 {
		t.Error("no index join generated despite base index on id")
	}
}

func TestExtractPlanCoversQueries(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	p := pd.ExtractPlan()
	if p.Root == nil || p.Root.E.Kind != Batch {
		t.Fatal("plan root is not the batch node")
	}
	if len(p.Root.Children) != 2 {
		t.Fatalf("batch has %d children, want 2", len(p.Root.Children))
	}
	// Without materializations there must be no Mat marks.
	p.Root.Walk(func(pn *PlanNode) {
		if pn.Mat {
			t.Error("unexpected materialized plan node in Volcano plan")
		}
	})
}

func TestExtractPlanWithMaterialization(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	// Find the shared σ(A)⋈B group node (any prop) and materialize it.
	var shared *Node
	for _, n := range pd.Nodes {
		if n.Prop.IsAny() && len(n.LG.Schema) == 6 &&
			n.LG.Schema.Has(algebra.Col("A", "id")) && n.LG.Schema.Has(algebra.Col("B", "id")) {
			shared = n
			break
		}
	}
	if shared == nil {
		t.Fatal("no shared join node found")
	}
	pd.SetMaterialized(shared, true)
	p := pd.ExtractPlan()
	if len(p.Mats) != 1 {
		t.Fatalf("plan has %d materializations, want 1", len(p.Mats))
	}
	if p.Mats[0].N != shared || !p.Mats[0].Mat {
		t.Error("materialized plan node mismatch")
	}
}

func TestSetMaterializedIdempotent(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B"}, 50))
	n := pd.Nodes[0]
	if pd.SetMaterialized(n, true) == 0 {
		t.Error("first materialization should touch nodes")
	}
	if pd.SetMaterialized(n, true) != 0 {
		t.Error("repeated materialization should be a no-op")
	}
	pd.SetMaterialized(n, false)
	if pd.TotalCost() != pd.BestCostWith(nil) {
		t.Error("state not restored")
	}
}

// TestWalkVisitsOnceChildrenFirst: a walk reaches every plan node of a plan
// with shared sub-plans exactly once, after its children, and its visited
// set costs no allocation.
func TestWalkVisitsOnceChildrenFirst(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	p := pd.ExtractPlan()
	at := map[*PlanNode]int{}
	p.Root.Walk(func(pn *PlanNode) {
		if _, twice := at[pn]; twice {
			t.Errorf("node %d visited twice", pn.N.ID)
		}
		for _, c := range pn.Children {
			if _, done := at[c]; !done {
				t.Errorf("node %d visited before its child %d", pn.N.ID, c.N.ID)
			}
		}
		at[pn] = len(at)
	})
	shared := false
	for i := range p.Nodes {
		pn := &p.Nodes[i]
		if _, ok := at[pn]; !ok {
			t.Errorf("node %d not visited", pn.N.ID)
		}
		shared = shared || pn.NumParents > 1
	}
	if !shared {
		t.Error("no plan node has two parents: the plan checks nothing about sharing")
	}
	visits := 0
	if allocs := testing.AllocsPerRun(10, func() { p.Root.Walk(func(*PlanNode) { visits++ }) }); allocs != 0 {
		t.Errorf("a walk allocated %.0f times", allocs)
	}
}

// TestWideGroup holds the reuse rule to a group wider than a bitmask word.
// No workload has one (BQ5×6's widest group has 12 nodes), so the group is
// made by hand: node i delivers the sort order on the first i+1 of 150
// columns, so node j can serve node i exactly when j ≥ i, and the root reads
// nodes 70 and 130, which lie in different words from each other and from
// the node that serves them.
func TestWideGroup(t *testing.T) {
	const width = 150
	cols := make([]algebra.Column, width)
	for i := range cols {
		cols[i] = algebra.Col("W", fmt.Sprintf("c%d", i))
	}
	pd := &DAG{}
	wide := make([]*Node, width)
	for i := range wide {
		n := &Node{ID: i, Prop: SortProp(cols[:i+1]...), Topo: i, ReuseSeq: 1, MatCost: 1}
		pd.addExpr(PExpr{Kind: SeqScan, Node: n, OpCost: cost.Cost(100 + i)})
		wide[i] = n
	}
	root := &Node{ID: width, Topo: width, gi: 1}
	pd.addExpr(PExpr{Kind: Batch, Node: root}, wide[70], wide[130])
	pd.Nodes, pd.Root = append(wide, root), root
	pd.groups = []group{{nodes: wide}, {nodes: []*Node{root}}}
	pd.flatten()
	pd.initCosting()

	if got := pd.CostOf(root); got != 170+230 {
		t.Fatalf("root costs %v with nothing materialized, want 400", got)
	}
	pd.SetMaterialized(wide[140], true)
	if got := pd.CostOf(root); got != 2 {
		t.Errorf("root costs %v with node 140 materialized, want two reads at 1", got)
	}
	if m := pd.firstUsableMat(wide[70], root); m != wide[140] {
		t.Errorf("node 70 reads node %v, want 140", m)
	}
	pd.Mark()
	pd.SetMaterialized(wide[100], true)
	pd.SetMaterialized(wide[140], false)
	if got := pd.CostOf(root); got != 1+230 {
		t.Errorf("in the span root costs %v, want a read of node 100 for node 70 and node 130 computed", got)
	}
	if m, none := pd.firstUsableMat(wide[70], root), pd.firstUsableMat(wide[130], root); m != wide[100] || none != nil {
		t.Errorf("in the span node 70 reads %v and node 130 reads %v, want node 100 and none", m, none)
	}
	pd.SetMaterialized(wide[149], true)
	if m := pd.firstUsableMat(wide[70], root); m != wide[100] {
		t.Errorf("after a second addition node 70 reads %v, want the first set, node 100", m)
	}
	pd.SetMaterialized(wide[140], true)
	if m := pd.firstUsableMat(wide[70], root); m != wide[100] {
		t.Errorf("with node 140 set again node 70 reads %v, want the first set, node 100", m)
	}
	pd.Rollback()
	if got := pd.CostOf(root); got != 2 {
		t.Errorf("Rollback left root costing %v, want 2", got)
	}
	if m := pd.firstUsableMat(wide[70], root); m != wide[140] {
		t.Errorf("after Rollback node 70 reads node %v, want 140", m)
	}
}

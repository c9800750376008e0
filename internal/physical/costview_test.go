package physical

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mqo/internal/cost"
	"mqo/internal/tpcd"
)

// whatIfCandidates returns the nodes a greedy loop could toggle: everything
// but the root and parameter-dependent groups.
func whatIfCandidates(pd *DAG) []*Node {
	var out []*Node
	for _, n := range pd.Nodes {
		if n == pd.Root || n.LG.ParamDep {
			continue
		}
		out = append(out, n)
	}
	return out
}

// TestCostViewMatchesDAGToggle: for every candidate node, the overlay's
// what-if benefit must equal the benefit obtained by actually toggling the
// shared DAG, and the what-if must leave the DAG bit-for-bit untouched.
func TestCostViewMatchesDAGToggle(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	base := pd.TotalCost()
	costs := make([]float64, len(pd.Nodes))
	for i, n := range pd.Nodes {
		costs[i] = pd.CostOf(n)
	}

	v := newCostView(pd)
	for _, n := range whatIfCandidates(pd) {
		got := v.WhatIfBenefit(n)

		pd.SetMaterialized(n, true)
		want := base - pd.TotalCost()
		pd.SetMaterialized(n, false)

		// The view computes the benefit in delta form (per-changed-node
		// differences) for bit-stability across independent commits; it
		// agrees with the two-totals subtraction to float rounding.
		if !cost.Eq(got, want) {
			t.Fatalf("node %d: view benefit %v != DAG toggle benefit %v", n.ID, got, want)
		}
	}
	if pd.TotalCost() != base {
		t.Fatalf("base state drifted: %v vs %v", pd.TotalCost(), base)
	}
	for i, n := range pd.Nodes {
		if pd.CostOf(n) != costs[i] {
			t.Fatalf("node %d cost changed from %v to %v", n.ID, costs[i], pd.CostOf(n))
		}
	}
}

// TestCostViewMultiToggleMatchesScratch: a random sequence of toggles kept
// inside one view must agree with from-scratch recosting of the same set —
// the §4.2 incremental-update property, lifted to the overlay.
func TestCostViewMultiToggleMatchesScratch(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"B", "C", "D"}, 60))
	cands := whatIfCandidates(pd)
	rng := rand.New(rand.NewSource(11))
	v := newCostView(pd)
	set := map[*Node]bool{}
	for trial := 0; trial < 80; trial++ {
		n := cands[rng.Intn(len(cands))]
		on := !v.Materialized(n)
		v.SetMaterialized(n, on)
		if on {
			set[n] = true
		} else {
			delete(set, n)
		}
		var list []*Node
		for m := range set {
			list = append(list, m)
		}
		scratch := pd.BestCostWith(list)
		if !cost.Eq(v.TotalCost(), scratch) {
			t.Fatalf("trial %d: view total %v != scratch %v (set size %d)", trial, v.TotalCost(), scratch, len(list))
		}
	}
}

// TestCostViewOverBaseMaterializations: a view over a DAG that already has
// materialized nodes must see them, and must support turning them off
// privately (matDel) without touching the base.
func TestCostViewOverBaseMaterializations(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	cands := whatIfCandidates(pd)
	m := cands[len(cands)/2]
	pd.SetMaterialized(m, true)
	base := pd.TotalCost()

	v := newCostView(pd)
	if !v.Materialized(m) {
		t.Fatal("view does not see base materialization")
	}
	if v.TotalCost() != base {
		t.Fatalf("pristine view total %v != base %v", v.TotalCost(), base)
	}
	v.SetMaterialized(m, false)
	if v.Materialized(m) {
		t.Fatal("view still sees removed materialization")
	}
	if want := pd.BestCostWith(nil); !cost.Eq(v.TotalCost(), want) {
		t.Fatalf("view total after removal %v != empty-set cost %v", v.TotalCost(), want)
	}
	if !pd.Materialized(m) || pd.TotalCost() != base {
		t.Fatal("view removal leaked into the shared DAG")
	}
	// Re-adding inside the view must restore the base total exactly.
	v.SetMaterialized(m, true)
	if v.TotalCost() != base {
		t.Fatalf("round-trip view total %v != base %v", v.TotalCost(), base)
	}
}

// TestCostViewsConcurrent: a view never writes its DAG. Under -race, views
// over one DAG computing benefits at once would report any write, and each
// must compute the benefits one view computes alone.
func TestCostViewsConcurrent(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	cands := whatIfCandidates(pd)

	want := make([]float64, len(cands))
	ref := newCostView(pd)
	for i, n := range cands {
		want[i] = ref.WhatIfBenefit(n)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := newCostView(pd)
			for i := w; i < len(cands); i += workers {
				if got := v.WhatIfBenefit(cands[i]); got != want[i] {
					errs <- "benefit mismatch"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCostViewDrainCounters: counters accumulate across what-ifs and zero
// on drain.
func TestCostViewDrainCounters(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B"}, 50))
	v := newCostView(pd)
	n := whatIfCandidates(pd)[0]
	v.WhatIfBenefit(n)
	p, r := v.DrainCounters()
	if p == 0 || r == 0 {
		t.Fatalf("counters not accumulated: propagations %d, recomputations %d", p, r)
	}
	if p2, r2 := v.DrainCounters(); p2 != 0 || r2 != 0 {
		t.Fatalf("drain did not zero counters: %d, %d", p2, r2)
	}
}

// TestResetRestoresBuild: whatever a search materialized, Reset returns the
// DAG to what Build made — nothing materialized, no group with a reusable
// member, every node's cost bit-equal to a fresh build's, zero counters. A
// DAG already in that state is left alone, without a costing pass.
func TestResetRestoresBuild(t *testing.T) {
	ld := expandLogical(t, tpcd.Catalog(1), tpcd.BatchQueries(5))
	pd, err := Build(ld, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(ld, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	asBuilt := func(what string) {
		t.Helper()
		for i, n := range pd.Nodes {
			if pd.CostOf(n) != fresh.CostOf(fresh.Nodes[i]) || pd.Materialized(n) {
				t.Fatalf("%s: node %d costs %v (materialized %v), a fresh build's %v",
					what, n.ID, pd.CostOf(n), pd.Materialized(n), fresh.CostOf(fresh.Nodes[i]))
			}
		}
		for k, w := range pd.costing.mat {
			if w != 0 {
				t.Fatalf("%s: bitmask word %d still holds materialized nodes %b", what, k, w)
			}
		}
		if p, r := pd.Counters(); len(pd.MaterializedSet()) > 0 || p != 0 || r != 0 {
			t.Fatalf("%s: %d materialized, counters %d/%d", what, len(pd.MaterializedSet()), p, r)
		}
	}
	cands := whatIfCandidates(pd)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		for i := 0; i < 12; i++ {
			n := cands[rng.Intn(len(cands))]
			if round%2 == 0 {
				pd.SetMaterialized(n, !pd.Materialized(n))
			} else {
				pd.SetMaterializedRaw(n, !pd.Materialized(n))
			}
		}
		pd.Reset()
		asBuilt("after toggles")
	}
	pd.costing.cost[pd.Root.Topo]++ // a pass would put it back
	pd.Reset()
	if pd.CostOf(pd.Root) == fresh.CostOf(fresh.Root) {
		t.Error("Reset of a DAG in its built state ran a costing pass")
	}

	// Armed: what the result cache arms comes off again with Disarm. The BQ5
	// DAG gets CacheScans; a nested query's also an InvokePartial.
	nested, err := Build(expandLogical(t, testCatalog(), nestedTrees()), cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DAG{pd, nested} {
		disarmRestoresBuild(t, d)
	}
	asBuilt("after arming and Disarm")
}

// disarmRestoresBuild holds pd, which nothing armed, to fresh builds over its
// logical DAG. Arming one set of nodes, Disarm and arming as many others
// without a Reset between must cost the DAG as a fresh build armed the second
// way: the layout must not be taken for current because the count of
// operation nodes is back where it was. Arming, Disarm and Reset must leave
// the flat arrays, every operation node's id and every node's cost
// bit-identical to a fresh build's.
func disarmRestoresBuild(t *testing.T, pd *DAG) {
	t.Helper()
	build := func() *DAG {
		d, err := Build(pd.L, pd.Model)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var first, second []int // topological numbers; an Invoke's node is second's
	for _, n := range pd.Nodes {
		switch {
		case n.Exprs[0].Kind == InvokeOp:
			second = append(second, n.Topo)
		case n == pd.Root || n.LG.ParamDep || n.Prop.HasIx || n.Topo%3 != 0:
		case len(first) <= len(second):
			first = append(first, n.Topo)
		default:
			second = append(second, n.Topo)
		}
	}
	first = first[:min(len(first), len(second))]
	if len(first) == 0 {
		t.Fatal("no nodes to arm")
	}
	// Priced off the node alone: the DAG's costs when the second set is
	// armed are still the first set's.
	arm := func(d *DAG, topos []int) {
		for _, topo := range topos {
			n := d.Nodes[topo]
			read := d.Model.TierScanCost(cost.TierWarm, n.Blocks(d.Model)) / 4
			if e := n.Exprs[0]; e.Kind == InvokeOp {
				d.ArmInvokePartial(n, e.LE, e.Children[0], e.Weight()/4, read,
					[]BindScan{{Bind: "x=1", Table: "b1"}}, []string{"x=2"}, "fp")
			} else {
				d.ArmCacheScan(n, "c", read, cost.TierWarm)
			}
		}
	}
	sameCosts := func(what string, d *DAG) {
		t.Helper()
		for i, n := range pd.Nodes {
			if got, want := pd.CostOf(n), d.CostOf(d.Nodes[i]); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: node %d costs %v, a fresh build's %v", what, n.ID, got, want)
			}
		}
	}

	arm(pd, first)
	pd.Recost()
	pd.Disarm()
	arm(pd, second)
	pd.Reset()
	want := build()
	arm(want, second)
	want.Recost()
	sameCosts("armed, disarmed and armed again", want)
	if pd.numExprs != want.numExprs || pd.numExprs == pd.built {
		t.Fatalf("%d operation nodes, a fresh build armed alike %d (%d built)", pd.numExprs, want.numExprs, pd.built)
	}

	pd.Disarm()
	pd.Reset()
	want = build()
	sameCosts("disarmed and reset", want)
	if !reflect.DeepEqual(pd.flat, want.flat) {
		t.Fatal("disarmed and reset: the flat layout differs from a fresh build's")
	}
	for i, n := range pd.Nodes {
		m := want.Nodes[i]
		if len(n.Exprs) != len(m.Exprs) {
			t.Fatalf("disarmed: node %d has %d operation nodes, a fresh build's %d", n.ID, len(n.Exprs), len(m.Exprs))
		}
		for j, e := range n.Exprs {
			if e.id != m.Exprs[j].id || e.Kind != m.Exprs[j].Kind || e.Arm != nil {
				t.Fatalf("disarmed: node %d's operation node %d is %v #%d, a fresh build's %v #%d",
					n.ID, j, e.Kind, e.id, m.Exprs[j].Kind, m.Exprs[j].id)
			}
		}
	}
}

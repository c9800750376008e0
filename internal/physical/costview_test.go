package physical

import (
	"math/rand"
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
	if pd.Armed() || !armedDAG(t).Armed() {
		t.Error("Armed does not tell an armed DAG from a built one")
	}
}

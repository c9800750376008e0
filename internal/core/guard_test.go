package core

import (
	"testing"

	"mqo/internal/cost"
	"mqo/internal/sql"
)

// TestGuardFallbackCountsOnlySearchWork: when a heuristic's plan costs more
// than the no-sharing baseline, Optimize returns the baseline plan with the
// heuristic's instrumentation. Dropping the heuristic's materialized set is
// not search work, so the fallback must leave the propagation and
// recomputation counters where the search left them, and the DAG costed as a
// fresh one is. No batch of FuzzOptimize's corpus makes a heuristic lose to
// the baseline on the current cost model, so the test leaves a losing set on
// a corpus batch's DAG itself — every query root materialized, each read
// once, so the writes are all loss — and hands the guard that state.
func TestGuardFallbackCountsOnlySearchWork(t *testing.T) {
	cat := fuzzOptimizeCatalog()
	queries, err := sql.ParseBatch(cat, genBatch([]byte("221120002111021122"))) // corpus entry d377cc8b106d9ff9
	if err != nil {
		t.Fatal(err)
	}
	pd, err := BuildDAG(cat, cost.DefaultModel(), queries)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := BuildDAG(cat, cost.DefaultModel(), queries)
	if err != nil {
		t.Fatal(err)
	}
	fresh := optimizeVolcano(twin)
	noShare := pd.TotalCost()
	for _, q := range pd.QueryRoots {
		pd.SetMaterialized(q, true)
	}
	lost := &Result{Cost: pd.TotalCost(), Plan: pd.ExtractPlan(), Materialized: pd.MaterializedSet()}
	if cost.Leq(lost.Cost, noShare) {
		t.Fatalf("materializing the query roots costs %v, no more than the baseline %v", lost.Cost, noShare)
	}
	props, recomps := pd.Counters()
	if props == 0 {
		t.Fatal("the losing set was committed without propagation")
	}
	fb := guardBaseline(pd, lost, nil, noShare)
	if fb == lost {
		t.Fatal("the guard kept a plan costing more than the baseline")
	}
	if p, r := pd.Counters(); p != props || r != recomps {
		t.Fatalf("counters %d/%d after the fallback, %d/%d before it", p, r, props, recomps)
	}
	if got := pd.MaterializedSet(); len(got) != 0 {
		t.Fatalf("%d nodes still materialized after the fallback", len(got))
	}
	if fb.Cost != fresh.Cost || fb.Cost != noShare {
		t.Fatalf("fallback cost %v, fresh Volcano %v, baseline %v", fb.Cost, fresh.Cost, noShare)
	}
	if g, w := fb.Plan.String(), fresh.Plan.String(); g != w {
		t.Fatalf("fallback plan:\n%s\nfresh Volcano plan:\n%s", g, w)
	}
	for i, n := range pd.Nodes {
		if pd.CostOf(n) != twin.CostOf(twin.Nodes[i]) {
			t.Fatalf("node %d costs %v after the fallback, %v on a fresh DAG", n.ID, pd.CostOf(n), twin.CostOf(twin.Nodes[i]))
		}
	}
}

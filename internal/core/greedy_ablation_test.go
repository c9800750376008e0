package core

import (
	"context"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/physical"
	"mqo/internal/psp"
)

// TestGreedyAblationsAgreeOnPSP verifies on a real scaleup workload that
// all three §4 optimizations are pure accelerations: disabling any of them
// must not change the plan cost.
func TestGreedyAblationsAgreeOnPSP(t *testing.T) {
	pd, err := BuildDAG(psp.Catalog(1), cost.DefaultModel(), psp.CQ(2))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []GreedyOptions{
		{DisableMonotonicity: true},
		{DisableSharability: true},
		{DisableIncremental: true},
		{DisableMonotonicity: true, DisableIncremental: true},
	} {
		res, err := Optimize(context.Background(), pd, Greedy, Options{Greedy: opt})
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if diff := res.Cost - base.Cost; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%+v: cost %.4f != base %.4f", opt, res.Cost, base.Cost)
		}
	}
	// The incremental state left behind must agree with from-scratch
	// costing for the chosen set.
	if diff := pd.TotalCost() - pd.BestCostWith(pd.MaterializedSet()); diff > 1e-6 || diff < -1e-6 {
		t.Error("incremental costing state diverges from scratch recosting")
	}
}

// BenchmarkGreedyExhaustive times the greedy loop without the monotonicity
// heuristic (every remaining candidate's benefit recomputed every round —
// the §6.3 worst case, whose time mqopaper's monotonicity ablation
// reports) on a batch big enough for the benefit loop to dominate.
func BenchmarkGreedyExhaustive(b *testing.B) {
	pd := benchDAG(b)
	opt := Options{Greedy: GreedyOptions{DisableMonotonicity: true}}
	for b.Loop() {
		if _, err := Optimize(context.Background(), pd, Greedy, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDAG builds six random batches as one.
func benchDAG(tb testing.TB) *physical.DAG {
	rng := rand.New(rand.NewSource(42))
	var batch []*algebra.Tree
	for i := 0; i < 6; i++ {
		batch = append(batch, randomBatch(rng)...)
	}
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
	if err != nil {
		tb.Fatal(err)
	}
	return pd
}

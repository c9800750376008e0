package core

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/physical"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, n := range []string{"R", "S", "T", "P", "U"} {
		cat.Add(&catalog.Table{
			Name: n,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", 50000),
				catalog.IntCol("fk", 5000),
				catalog.IntColRange("num", 1000, 1, 1000),
			},
			Rows: 50000,
		})
	}
	return cat
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

func mustBuild(t *testing.T, queries ...*algebra.Tree) *physical.DAG {
	t.Helper()
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), queries)
	if err != nil {
		t.Fatal(err)
	}
	return pd
}

func mustOptimize(t *testing.T, pd *physical.DAG, alg Algorithm) *Result {
	t.Helper()
	res, err := Optimize(context.Background(), pd, alg, Options{})
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return res
}

// TestExample11 reproduces the paper's Example 1.1: Q1 = (R⋈S)⋈P and
// Q2 = (R⋈T)⋈S. Greedy should discover that choosing (R⋈S)⋈T for Q2 lets
// both share R⋈S.
func TestExample11(t *testing.T) {
	pRS := algebra.ColEq(algebra.Col("R", "fk"), algebra.Col("S", "id"))
	pSP := algebra.ColEq(algebra.Col("S", "fk"), algebra.Col("P", "id"))
	pST := algebra.ColEq(algebra.Col("S", "fk"), algebra.Col("T", "id"))
	q1 := algebra.JoinT(pSP, algebra.JoinT(pRS, algebra.ScanT("R"), algebra.ScanT("S")), algebra.ScanT("P"))
	// Q2 written as R⋈(S⋈T): its locally best plan need not contain R⋈S,
	// but the expanded DAG derives (R⋈S)⋈T, which can share R⋈S with Q1.
	q2 := algebra.JoinT(pRS, algebra.ScanT("R"), algebra.JoinT(pST, algebra.ScanT("S"), algebra.ScanT("T")))

	pd := mustBuild(t, q1, q2)
	volcano := mustOptimize(t, pd, Volcano)
	greedy := mustOptimize(t, pd, Greedy)
	if greedy.Cost > volcano.Cost {
		t.Errorf("greedy cost %.2f exceeds volcano cost %.2f", greedy.Cost, volcano.Cost)
	}
}

func TestAlgorithmCostOrdering(t *testing.T) {
	// Two queries sharing σ(R)⋈S: all heuristics must beat or match
	// Volcano; Greedy must beat or match Volcano-SH.
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	costs := map[Algorithm]float64{}
	for _, alg := range Algorithms() {
		costs[alg] = mustOptimize(t, pd, alg).Cost
	}
	if costs[VolcanoSH] > costs[Volcano]+1e-9 {
		t.Errorf("Volcano-SH (%.2f) worse than Volcano (%.2f)", costs[VolcanoSH], costs[Volcano])
	}
	if costs[VolcanoRU] > costs[Volcano]+1e-9 {
		t.Errorf("Volcano-RU (%.2f) worse than Volcano (%.2f)", costs[VolcanoRU], costs[Volcano])
	}
	if costs[Greedy] > costs[Volcano]+1e-9 {
		t.Errorf("Greedy (%.2f) worse than Volcano (%.2f)", costs[Greedy], costs[Volcano])
	}
	if costs[Greedy] >= costs[Volcano] {
		t.Errorf("Greedy found no sharing benefit on an obviously sharable batch")
	}
}

func TestGreedyMaterializesSharedSubexpression(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	res := mustOptimize(t, pd, Greedy)
	if len(res.Materialized) == 0 {
		t.Fatal("greedy materialized nothing on a sharable batch")
	}
	// At least one materialized node must cover exactly {R, S} columns.
	found := false
	for _, m := range res.Materialized {
		if m.LG.Schema.Has(algebra.Col("R", "id")) && m.LG.Schema.Has(algebra.Col("S", "id")) &&
			!m.LG.Schema.Has(algebra.Col("T", "id")) && !m.LG.Schema.Has(algebra.Col("P", "id")) {
			found = true
		}
	}
	if !found {
		t.Error("greedy did not materialize the shared σ(R)⋈S subexpression")
	}
}

func TestSharabilityExample(t *testing.T) {
	// Example 1.1 structure: R⋈S is sharable (appears in plans of both
	// queries), S⋈P is not (only Q1 can use it).
	pRS := algebra.ColEq(algebra.Col("R", "fk"), algebra.Col("S", "id"))
	pSP := algebra.ColEq(algebra.Col("S", "fk"), algebra.Col("P", "id"))
	pST := algebra.ColEq(algebra.Col("S", "fk"), algebra.Col("T", "id"))
	q1 := algebra.JoinT(pSP, algebra.JoinT(pRS, algebra.ScanT("R"), algebra.ScanT("S")), algebra.ScanT("P"))
	q2 := algebra.JoinT(pRS, algebra.ScanT("R"), algebra.JoinT(pST, algebra.ScanT("S"), algebra.ScanT("T")))
	pd := mustBuild(t, q1, q2)
	degrees := ComputeSharability(pd)

	degreeOf := func(has, hasNot []algebra.Column) float64 {
		for g, d := range degrees {
			ok := true
			for _, c := range has {
				if !g.Schema.Has(c) {
					ok = false
				}
			}
			for _, c := range hasNot {
				if g.Schema.Has(c) {
					ok = false
				}
			}
			if ok && len(g.Schema) == 6 {
				return d
			}
		}
		return -1
	}
	rs := degreeOf([]algebra.Column{algebra.Col("R", "id"), algebra.Col("S", "id")},
		[]algebra.Column{algebra.Col("T", "id"), algebra.Col("P", "id")})
	sp := degreeOf([]algebra.Column{algebra.Col("S", "id"), algebra.Col("P", "id")},
		[]algebra.Column{algebra.Col("T", "id"), algebra.Col("R", "id")})
	if rs <= 1 {
		t.Errorf("R⋈S degree of sharing = %v, want > 1", rs)
	}
	if sp != 1 {
		t.Errorf("S⋈P degree of sharing = %v, want 1", sp)
	}
}

func TestGreedyMonotonicityMatchesExhaustive(t *testing.T) {
	// The paper reports identical plans with and without the monotonicity
	// heuristic on all tested queries; verify cost equality here.
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990),
		chain([]string{"S", "T", "P"}, 980))
	mono, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exh, err := Optimize(context.Background(), pd, Greedy, Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mono.Cost - exh.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("monotonic greedy cost %.3f != exhaustive greedy cost %.3f", mono.Cost, exh.Cost)
	}
	if mono.Stats.BenefitRecomputations >= exh.Stats.BenefitRecomputations {
		t.Errorf("monotonicity did not reduce benefit recomputations: %d vs %d",
			mono.Stats.BenefitRecomputations, exh.Stats.BenefitRecomputations)
	}
}

func TestGreedyIncrementalMatchesScratch(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	incr, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Optimize(context.Background(), pd, Greedy, Options{Greedy: GreedyOptions{DisableIncremental: true}})
	if err != nil {
		t.Fatal(err)
	}
	if diff := incr.Cost - scratch.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("incremental greedy cost %.3f != scratch greedy cost %.3f", incr.Cost, scratch.Cost)
	}
}

func TestGreedySharabilityAblationSameCost(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	with, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(context.Background(), pd, Greedy, Options{Greedy: GreedyOptions{DisableSharability: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Disabling sharability enlarges the candidate set but must not yield
	// a worse plan.
	if without.Cost > with.Cost+1e-6 {
		t.Errorf("sharability filter changed plan quality: %.3f vs %.3f", with.Cost, without.Cost)
	}
	if without.Stats.Candidates <= with.Stats.Candidates {
		t.Errorf("ablation should increase candidates: %d vs %d", without.Stats.Candidates, with.Stats.Candidates)
	}
}

func TestNoSharingBatchFallsBackToVolcano(t *testing.T) {
	// Disjoint queries: greedy must return the Volcano plan and cost.
	pd := mustBuild(t, chain([]string{"R", "S"}, 990), chain([]string{"T", "P"}, 980))
	volcano := mustOptimize(t, pd, Volcano)
	greedy := mustOptimize(t, pd, Greedy)
	if diff := greedy.Cost - volcano.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("greedy cost %.3f != volcano cost %.3f on non-overlapping batch", greedy.Cost, volcano.Cost)
	}
	if len(greedy.Materialized) != 0 {
		t.Errorf("greedy materialized %d nodes on non-overlapping batch", len(greedy.Materialized))
	}
}

func TestNestedQueryInvokeBenefits(t *testing.T) {
	// A correlated nested query invoked 1000 times: body = σ(S.id=?x)(R⋈S).
	// The invariant R⋈S should be materialized by greedy, and the greedy
	// cost should be far below Volcano (which recomputes per invocation).
	inner := algebra.SelectT(algebra.CmpParam(algebra.Col("S", "num"), algebra.EQ, "x"),
		algebra.JoinT(algebra.ColEq(algebra.Col("R", "fk"), algebra.Col("S", "id")),
			algebra.ScanT("R"), algebra.ScanT("S")))
	nested := algebra.NewTree(algebra.Invoke{Times: 1000}, inner)
	pd := mustBuild(t, nested)
	volcano := mustOptimize(t, pd, Volcano)
	greedy := mustOptimize(t, pd, Greedy)
	if greedy.Cost >= volcano.Cost {
		t.Fatalf("greedy (%.1f) did not improve on volcano (%.1f) for nested query", greedy.Cost, volcano.Cost)
	}
	if volcano.Cost < 2*greedy.Cost {
		t.Errorf("expected large nested-query benefit; volcano %.1f vs greedy %.1f", volcano.Cost, greedy.Cost)
	}
	if len(greedy.Materialized) == 0 {
		t.Error("greedy materialized nothing for repeated invocations")
	}
	for _, m := range greedy.Materialized {
		if m.LG.ParamDep {
			t.Error("materialized a parameter-dependent node")
		}
	}
}

func TestVolcanoRUOrderSensitivity(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	both := mustOptimize(t, pd, VolcanoRU)
	pd.Reset()
	fwd, err := runRUOrder(context.Background(), pd, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if both.Cost > fwd.cost+1e-9 {
		t.Errorf("considering both orders (%.3f) must not be worse than forward only (%.3f)", both.Cost, fwd.cost)
	}
}

func TestOptimizeEmptyBatchFails(t *testing.T) {
	if _, err := BuildDAG(testCatalog(), cost.DefaultModel(), nil); err == nil {
		t.Error("BuildDAG on empty batch should fail")
	}
}

func TestStatsPopulated(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	res := mustOptimize(t, pd, Greedy)
	if res.Stats.DAGGroups == 0 || res.Stats.DAGExprs == 0 || res.Stats.PhysNodes == 0 {
		t.Error("DAG stats not populated")
	}
	if st := res.Stats; st.DAGDuplicates == 0 || st.DAGDerivations-st.DAGDuplicates < st.DAGExprs {
		t.Errorf("%d derivations with %d duplicates cannot account for %d expressions", st.DAGDerivations, st.DAGDuplicates, st.DAGExprs)
	}
	if res.Stats.CostRecomputations == 0 || res.Stats.CostPropagations == 0 {
		t.Error("greedy counters not populated")
	}
	if res.Stats.SharableNodes == 0 {
		t.Error("no sharable nodes found on sharable batch")
	}
}

package core

import (
	"context"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/physical"
)

// randomBatch builds a random batch of chain queries over a random subset
// of the test relations, with random selective predicates — the fuzz
// driver for the optimizer-wide invariants below.
func randomBatch(rng *rand.Rand) []*algebra.Tree {
	names := []string{"R", "S", "T", "P", "U"}
	nq := 2 + rng.Intn(3)
	batch := make([]*algebra.Tree, nq)
	for q := 0; q < nq; q++ {
		start := rng.Intn(3)
		length := 2 + rng.Intn(3)
		if start+length > len(names) {
			length = len(names) - start
		}
		tables := names[start : start+length]
		sel := int64(900 + rng.Intn(99))
		batch[q] = chain(tables, sel)
	}
	return batch
}

// TestRandomBatchesInvariants checks, over many random batches:
//  1. every heuristic's plan costs no more than Volcano's;
//  2. greedy leaves a costing state consistent with scratch recosting;
//  3. greedy with and without the monotonicity heuristic agree on cost.
func TestRandomBatchesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		batch := randomBatch(rng)
		pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		volcano, err := Optimize(context.Background(), pd, Volcano, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, alg := range []Algorithm{VolcanoSH, VolcanoRU, Greedy} {
			res, err := Optimize(context.Background(), pd, alg, Options{})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			if res.Cost > volcano.Cost*(1+1e-9) {
				t.Errorf("trial %d: %v cost %f exceeds Volcano %f", trial, alg, res.Cost, volcano.Cost)
			}
		}
		greedy, err := Optimize(context.Background(), pd, Greedy, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := pd.TotalCost() - pd.BestCostWith(pd.MaterializedSet()); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("trial %d: incremental state inconsistent (%v)", trial, diff)
		}
		exh, err := Optimize(context.Background(), pd, Greedy, Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
		if err != nil {
			t.Fatal(err)
		}
		if diff := greedy.Cost - exh.Cost; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("trial %d: monotonic (%f) vs exhaustive (%f) greedy diverge", trial, greedy.Cost, exh.Cost)
		}
	}
}

// TestGreedyBenefitNonNegativeSteps replays greedy's chosen sequence and
// verifies every materialization strictly reduced bestcost — the loop
// condition of Figure 4.
func TestGreedyBenefitNonNegativeSteps(t *testing.T) {
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), []*algebra.Tree{
		chain([]string{"R", "S", "T"}, 990),
		chain([]string{"R", "S", "P"}, 990),
		chain([]string{"S", "T", "P"}, 980),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ClearMaterialized(pd)
	prev := pd.TotalCost()
	var set []*physical.Node
	for i, m := range res.Materialized {
		set = append(set, m)
		cur := pd.BestCostWith(set)
		if cur >= prev {
			t.Errorf("step %d: materializing node %d did not reduce cost (%f -> %f)", i, m.ID, prev, cur)
		}
		prev = cur
	}
}

// TestDegreesAreUpperBoundsOnPlanUses verifies the §4.1 semantics: the
// degree of sharing of a group bounds the number of occurrences of the
// group in the extracted best plan tree.
func TestDegreesAreUpperBoundsOnPlanUses(t *testing.T) {
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), []*algebra.Tree{
		chain([]string{"R", "S", "T"}, 990),
		chain([]string{"R", "S", "P"}, 990),
	})
	if err != nil {
		t.Fatal(err)
	}
	degrees := ComputeSharability(pd)
	ClearMaterialized(pd)
	pd.Recost()
	plan := pd.ExtractPlan()
	// Count plan-tree occurrences per logical group by expanding sharing.
	// Enforcer plan nodes (sort/index build) belong to the same logical
	// group as their input; a chain of same-group nodes is one logical
	// occurrence, so only group transitions are counted.
	counts := map[int32]float64{}
	var walk func(pn *physical.PlanNode, mult float64, parent int32)
	walk = func(pn *physical.PlanNode, mult float64, parent int32) {
		id := int32(pn.N.LG.ID)
		if id != parent {
			counts[id] += mult
		}
		for _, c := range pn.Children {
			walk(c, mult*pn.E.Weight(), id)
		}
	}
	walk(plan.Root, 1, -1)
	for _, g := range pd.L.LiveGroups() {
		if d, ok := degrees[g]; ok && counts[int32(g.ID)] > d+1e-9 {
			t.Errorf("group %d occurs %.0f times in the plan tree but degree of sharing is %.0f",
				g.ID, counts[int32(g.ID)], d)
		}
	}
}

// TestSingleQueryBatch ensures intra-query sharing works with one query.
func TestSingleQueryBatch(t *testing.T) {
	// A self-join-like query where the same subexpression feeds two
	// aggregates: Agg1(σ(R)⋈S) × Agg2(σ(R)⋈S).
	base := func() *algebra.Tree {
		return algebra.JoinT(algebra.ColEq(algebra.Col("R", "fk"), algebra.Col("S", "id")),
			algebra.SelectT(algebra.Cmp(algebra.Col("R", "num"), algebra.GE, algebra.IntVal(900)),
				algebra.ScanT("R")),
			algebra.ScanT("S"))
	}
	a1 := algebra.AggT([]algebra.Column{algebra.Col("S", "id")},
		[]algebra.AggExpr{{Func: algebra.CountAll, As: algebra.Col("q", "n")}}, base())
	a2 := algebra.AggT(nil,
		[]algebra.AggExpr{{Func: algebra.CountAll, As: algebra.Col("q", "total")}}, base())
	q := algebra.JoinT(algebra.TruePred(), a1, a2)
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), []*algebra.Tree{q})
	if err != nil {
		t.Fatal(err)
	}
	volcano := mustOptimize(t, pd, Volcano)
	greedy := mustOptimize(t, pd, Greedy)
	if greedy.Cost > volcano.Cost {
		t.Errorf("intra-query sharing: greedy %f worse than volcano %f", greedy.Cost, volcano.Cost)
	}
}

// TestCrossProductQuery checks the optimizer copes with a pure cross
// product (empty join predicate).
func TestCrossProductQuery(t *testing.T) {
	q := algebra.JoinT(algebra.TruePred(),
		algebra.SelectT(algebra.Cmp(algebra.Col("R", "num"), algebra.GE, algebra.IntVal(999)), algebra.ScanT("R")),
		algebra.SelectT(algebra.Cmp(algebra.Col("S", "num"), algebra.GE, algebra.IntVal(999)), algebra.ScanT("S")))
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), []*algebra.Tree{q})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		if res := mustOptimize(t, pd, alg); res.Cost <= 0 {
			t.Errorf("%v: non-positive cost on cross product", alg)
		}
	}
}

// TestSingleRelationQuery is the degenerate smallest batch.
func TestSingleRelationQuery(t *testing.T) {
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(),
		[]*algebra.Tree{algebra.ScanT("R")})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res := mustOptimize(t, pd, alg)
		if len(res.Materialized) != 0 {
			t.Errorf("%v materialized something for a bare scan", alg)
		}
	}
}

// TestUnknownTableFails exercises the catalog error path through BuildDAG.
func TestUnknownTableFails(t *testing.T) {
	cat := catalog.New()
	if _, err := BuildDAG(cat, cost.DefaultModel(), []*algebra.Tree{algebra.ScanT("ghost")}); err == nil {
		t.Error("BuildDAG should fail for an unknown table")
	}
}

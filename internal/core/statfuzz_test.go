package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/physical"
)

// fuzzCatalog builds the test schema with every table's cardinality scaled
// by a random per-table factor — the catalog-statistics mutation driver.
// The returned scale maps table name to the applied factor.
func fuzzCatalog(rng *rand.Rand, global float64) (*catalog.Catalog, map[string]float64) {
	cat := catalog.New()
	scale := map[string]float64{}
	for _, n := range []string{"R", "S", "T", "P", "U"} {
		f := global * (0.25 + 3*rng.Float64())
		scale[n] = f
		rows := int64(float64(50000) * f)
		if rows < 10 {
			rows = 10
		}
		distinct := rows
		cat.Add(&catalog.Table{
			Name: n,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", distinct),
				catalog.IntCol("fk", distinct/10+1),
				catalog.IntColRange("num", 1000, 1, 1000),
			},
			Rows: rows,
		})
	}
	return cat, scale
}

// TestCatalogStatMutationFuzz perturbs table cardinalities and asserts the
// optimizer's cost invariants hold at every statistics point — plan-cost
// dominance rather than byte equality, since different statistics are
// EXPECTED to change the plans:
//
//  1. every heuristic's plan costs no more than Volcano's on the same DAG;
//  2. monotonic greedy and the exhaustive ablation agree on cost, and the
//     monotonic loop recomputes no more benefits than the exhaustive one;
//  3. after Volcano-RU and after each of Greedy's three loops (monotonic,
//     exhaustive, space budget) the DAG's costing state describes the
//     returned result: its materialized set is the result's, and its
//     total agrees with a from-scratch costing of that set;
//  4. scaling EVERY table's cardinality up never makes any algorithm's
//     plan cheaper (costs move with stats).
func TestCatalogStatMutationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		batch := randomBatch(rng)
		cat, _ := fuzzCatalog(rng, 1)
		pd, err := BuildDAG(cat, cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		volcano := mustOptimize(t, pd, Volcano)
		results := map[Algorithm]*Result{}
		for _, alg := range []Algorithm{VolcanoSH, VolcanoRU, Greedy} {
			res := mustOptimize(t, pd, alg)
			results[alg] = res
			if !cost.Leq(res.Cost, volcano.Cost) {
				t.Errorf("trial %d: %v cost %f exceeds Volcano %f", trial, alg, res.Cost, volcano.Cost)
			}
			if alg != VolcanoSH {
				checkStateDescribes(t, pd, res, fmt.Sprintf("trial %d %v", trial, alg))
			}
		}

		mono := results[Greedy]
		for _, loop := range []GreedyOptions{{DisableMonotonicity: true}, {SpaceBudgetBytes: 1 << 24}} {
			res, err := Optimize(context.Background(), pd, Greedy, Options{Greedy: loop})
			if err != nil {
				t.Fatal(err)
			}
			checkStateDescribes(t, pd, res, fmt.Sprintf("trial %d greedy %+v", trial, loop))
			if !loop.DisableMonotonicity {
				continue
			}
			if !cost.Eq(mono.Cost, res.Cost) {
				t.Errorf("trial %d: monotonic greedy %f != exhaustive %f", trial, mono.Cost, res.Cost)
			}
			if mono.Stats.BenefitRecomputations > res.Stats.BenefitRecomputations {
				t.Errorf("trial %d: monotonic greedy recomputed %d benefits, exhaustive %d",
					trial, mono.Stats.BenefitRecomputations, res.Stats.BenefitRecomputations)
			}
		}
	}
}

// checkStateDescribes fails unless pd's costing state, as a search left it,
// describes res: the same materialized set, and a total that a from-scratch
// costing of that set agrees with.
func checkStateDescribes(t *testing.T, pd *physical.DAG, res *Result, what string) {
	t.Helper()
	set := map[*physical.Node]bool{}
	for _, m := range pd.MaterializedSet() {
		set[m] = true
	}
	if len(set) != len(res.Materialized) {
		t.Fatalf("%s: the DAG has %d materialized nodes, the result %d", what, len(set), len(res.Materialized))
	}
	for _, m := range res.Materialized {
		if !set[m] {
			t.Fatalf("%s: result node %d is not materialized on the DAG", what, m.ID)
		}
	}
	if got, want := pd.TotalCost(), pd.BestCostWith(pd.MaterializedSet()); !cost.Eq(got, want) {
		t.Fatalf("%s: the DAG's total %v, from scratch %v", what, got, want)
	}
}

// TestCatalogStatScaleMonotonicity is invariant 4 in isolation: for a
// fixed batch, doubling every table's cardinality must not reduce any
// algorithm's plan cost — more data can only cost more under the paper's
// I/O-dominated model.
func TestCatalogStatScaleMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		batch := randomBatch(rng)
		// A fresh rng per catalog so both scales perturb identically.
		mk := func(global float64) *catalog.Catalog {
			r := rand.New(rand.NewSource(1000 + int64(trial)))
			cat, _ := fuzzCatalog(r, global)
			return cat
		}
		small, err := BuildDAG(mk(1), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		big, err := BuildDAG(mk(2), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, alg := range Algorithms() {
			lo := mustOptimize(t, small, alg)
			hi := mustOptimize(t, big, alg)
			if !cost.Leq(lo.Cost, hi.Cost) {
				t.Errorf("trial %d %v: cost fell from %f to %f when cardinalities doubled",
					trial, alg, lo.Cost, hi.Cost)
			}
		}
	}
}

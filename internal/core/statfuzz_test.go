package core

import (
	"context"
	"math/rand"
	"testing"

	"mqo/internal/catalog"
	"mqo/internal/cost"
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
//  2. monotonic greedy and the exhaustive ablation agree on cost;
//  3. the parallel engine reproduces serial greedy's cost and materialized
//     set at every statistics point;
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
		costs := map[Algorithm]float64{Volcano: volcano.Cost}
		for _, alg := range []Algorithm{VolcanoSH, VolcanoRU, Greedy} {
			res := mustOptimize(t, pd, alg)
			costs[alg] = res.Cost
			if !cost.Leq(res.Cost, volcano.Cost) {
				t.Errorf("trial %d: %v cost %f exceeds Volcano %f", trial, alg, res.Cost, volcano.Cost)
			}
		}

		exh, err := Optimize(context.Background(), pd, Greedy,
			Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
		if err != nil {
			t.Fatal(err)
		}
		if !cost.Eq(costs[Greedy], exh.Cost) {
			t.Errorf("trial %d: monotonic greedy %f != exhaustive %f", trial, costs[Greedy], exh.Cost)
		}

		serial, err := Optimize(context.Background(), pd, Greedy, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Optimize(context.Background(), pd, Greedy, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Cost != serial.Cost || !sameIDs(materializedIDs(par), materializedIDs(serial)) {
			t.Errorf("trial %d: parallel greedy diverged from serial (cost %v vs %v)",
				trial, par.Cost, serial.Cost)
		}
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

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/physical"
)

func materializedIDs(res *Result) []int {
	ids := make([]int, len(res.Materialized))
	for i, m := range res.Materialized {
		ids[i] = m.ID
	}
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelGreedyEquivalence is the serial ≡ parallel property: across
// randomized DAGs, greedy at parallelism 1, 2 and 8 must return the same
// materialized set (in the same pick order), the exact same Result.Cost,
// the same number of benefit recomputations (the speculation schedule is
// worker-count independent), and never more benefit recomputations than
// the DisableMonotonicity ablation.
func TestParallelGreedyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := randomBatch(rng)
		pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exh, err := Optimize(context.Background(), pd, Greedy,
			Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var ref *Result
		for _, p := range []int{1, 2, 8} {
			res, err := Optimize(context.Background(), pd, Greedy,
				Options{Parallelism: p})
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, p, err)
			}
			if res.Stats.BenefitRecomputations > exh.Stats.BenefitRecomputations {
				t.Errorf("seed %d P=%d: monotonic recomputations %d exceed exhaustive %d",
					seed, p, res.Stats.BenefitRecomputations, exh.Stats.BenefitRecomputations)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Cost != ref.Cost {
				t.Errorf("seed %d P=%d: cost %v differs from serial %v", seed, p, res.Cost, ref.Cost)
			}
			if !sameIDs(materializedIDs(res), materializedIDs(ref)) {
				t.Errorf("seed %d P=%d: materialized set %v differs from serial %v",
					seed, p, materializedIDs(res), materializedIDs(ref))
			}
			if res.Stats.BenefitRecomputations != ref.Stats.BenefitRecomputations {
				t.Errorf("seed %d P=%d: %d benefit recomputations, serial did %d",
					seed, p, res.Stats.BenefitRecomputations, ref.Stats.BenefitRecomputations)
			}
		}
	}
}

// TestParallelGreedyVariantsEquivalence covers the exhaustive and
// space-budget loops: parallel evaluation must not change their picks
// either.
func TestParallelGreedyVariantsEquivalence(t *testing.T) {
	variants := []GreedyOptions{
		{DisableMonotonicity: true},
		{SpaceBudgetBytes: 1 << 24},
		{DisableSharability: true},
	}
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := randomBatch(rng)
		pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for vi, base := range variants {
			var ref *Result
			for _, p := range []int{1, 8} {
				opt := Options{Greedy: base, Parallelism: p}
				res, err := Optimize(context.Background(), pd, Greedy, opt)
				if err != nil {
					t.Fatalf("seed %d variant %d P=%d: %v", seed, vi, p, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Cost != ref.Cost || !sameIDs(materializedIDs(res), materializedIDs(ref)) {
					t.Errorf("seed %d variant %d P=%d: diverged from serial (cost %v vs %v, set %v vs %v)",
						seed, vi, p, res.Cost, ref.Cost, materializedIDs(res), materializedIDs(ref))
				}
			}
		}
	}
}

// TestParallelGreedyMatchesLegacySerialCost pins the parallel engine to the
// known-good serial invariants on the standard fixture: same cost as the
// exhaustive ablation, still at or below Volcano.
func TestParallelGreedyMatchesLegacySerialCost(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990),
		chain([]string{"S", "T", "P"}, 980))
	volcano := mustOptimize(t, pd, Volcano)
	par, err := Optimize(context.Background(), pd, Greedy, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	exh, err := Optimize(context.Background(), pd, Greedy,
		Options{Greedy: GreedyOptions{DisableMonotonicity: true}, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost > volcano.Cost {
		t.Errorf("parallel greedy cost %v exceeds volcano %v", par.Cost, volcano.Cost)
	}
	if !cost.Eq(par.Cost, exh.Cost) {
		t.Errorf("parallel monotonic cost %v != parallel exhaustive cost %v", par.Cost, exh.Cost)
	}
}

// TestParallelismDoesNotChangeIncrementalState: after a parallel run the
// shared DAG's costing state must describe the returned result exactly,
// like a serial run's.
func TestParallelismDoesNotChangeIncrementalState(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	res, err := Optimize(context.Background(), pd, Greedy, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !cost.Eq(pd.TotalCost(), pd.BestCostWith(pd.MaterializedSet())) {
		t.Fatalf("incremental state inconsistent after parallel run (%v vs %v)",
			pd.TotalCost(), pd.BestCostWith(pd.MaterializedSet()))
	}
	set := map[int]bool{}
	for _, m := range pd.MaterializedSet() {
		set[m.ID] = true
	}
	if len(set) != len(res.Materialized) {
		t.Fatalf("DAG has %d materialized nodes, result %d", len(set), len(res.Materialized))
	}
	for _, m := range res.Materialized {
		if !set[m.ID] {
			t.Fatalf("result node %d not materialized on the DAG", m.ID)
		}
	}
}

// TestVolcanoRUConcurrentMatchesSerial: the forward/reverse order passes on
// private CostViews must return byte-identical results whether they run
// sequentially or concurrently, and the shared DAG's costing state must
// describe the returned result either way.
func TestVolcanoRUConcurrentMatchesSerial(t *testing.T) {
	for seed := int64(60); seed < 66; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), randomBatch(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial, err := Optimize(context.Background(), pd, VolcanoRU, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serialPlan := serial.Plan.String()
		conc, err := Optimize(context.Background(), pd, VolcanoRU, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if conc.Cost != serial.Cost || conc.Plan.String() != serialPlan ||
			!sameIDs(materializedIDs(conc), materializedIDs(serial)) {
			t.Errorf("seed %d: concurrent RU diverged from serial (cost %v vs %v)",
				seed, conc.Cost, serial.Cost)
		}
		// The DAG state must reflect the returned result exactly.
		set := map[int]bool{}
		for _, m := range pd.MaterializedSet() {
			set[m.ID] = true
		}
		if len(set) != len(conc.Materialized) {
			t.Fatalf("seed %d: DAG has %d materialized nodes, result %d", seed, len(set), len(conc.Materialized))
		}
		for _, m := range conc.Materialized {
			if !set[m.ID] {
				t.Fatalf("seed %d: result node %d not materialized on the DAG", seed, m.ID)
			}
		}
	}
}

// BenchmarkGreedyParallel measures the benefit-loop speedup of overlay
// fan-out on the PSP scaleup batch: the exhaustive greedy loop (every
// candidate recomputed every round — the §6.3 worst case and the paper's
// dominant cost) at 1 vs 8 workers. Run with -cpu to pin GOMAXPROCS.
func BenchmarkGreedyParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pd := benchDAG(b)
			opt := Options{Greedy: GreedyOptions{DisableMonotonicity: true}, Parallelism: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(context.Background(), pd, Greedy, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDAG builds a batch big enough for the benefit loop to dominate.
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

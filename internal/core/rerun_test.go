package core

import (
	"context"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
)

// The tests in this file keep the names they had when Greedy and Volcano-RU
// could fan a search out over workers, and guard what that comparison was
// for: a search's result is a function of the DAG and the options alone.
// With one thread and one costing state per DAG, that means a search rerun
// on a DAG that has already been searched returns, bit for bit, what the same
// search returns on a fresh build.

// freshSignature builds batch anew and returns the signature of one search
// on it.
func freshSignature(t *testing.T, batch []*algebra.Tree, alg Algorithm, opt Options) string {
	t.Helper()
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), pd, alg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return resultSignature(res)
}

// TestParallelGreedyEquivalence: across randomized DAGs, monotonic greedy
// run after the exhaustive ablation on the same DAG returns what it returns
// on a fresh build — pick order, cost bits and every counter — and never
// recomputes more benefits than the exhaustive loop did.
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
		res, err := Optimize(context.Background(), pd, Greedy, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stats.BenefitRecomputations > exh.Stats.BenefitRecomputations {
			t.Errorf("seed %d: monotonic recomputations %d exceed exhaustive %d",
				seed, res.Stats.BenefitRecomputations, exh.Stats.BenefitRecomputations)
		}
		if got, want := resultSignature(res), freshSignature(t, batch, Greedy, Options{}); got != want {
			t.Errorf("seed %d: rerun greedy differs from a fresh build's:\n%s", seed, diffHint(want, got))
		}
	}
}

// TestParallelGreedyVariantsEquivalence covers the exhaustive, space-budget
// and no-sharability loops: each, run twice back to back on one DAG, returns
// the same result both times, and the result a fresh build gives.
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
			opt := Options{Greedy: base}
			want := freshSignature(t, batch, Greedy, opt)
			for rep := 0; rep < 2; rep++ {
				res, err := Optimize(context.Background(), pd, Greedy, opt)
				if err != nil {
					t.Fatalf("seed %d variant %d run %d: %v", seed, vi, rep, err)
				}
				if got := resultSignature(res); got != want {
					t.Errorf("seed %d variant %d run %d: differs from a fresh build's:\n%s",
						seed, vi, rep, diffHint(want, got))
				}
			}
		}
	}
}

// TestParallelGreedyMatchesLegacySerialCost pins greedy to the known-good
// invariants on the standard fixture: the same cost as the exhaustive
// ablation, and at or below Volcano.
func TestParallelGreedyMatchesLegacySerialCost(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990),
		chain([]string{"S", "T", "P"}, 980))
	volcano := mustOptimize(t, pd, Volcano)
	mono := mustOptimize(t, pd, Greedy)
	exh, err := Optimize(context.Background(), pd, Greedy,
		Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Cost > volcano.Cost {
		t.Errorf("greedy cost %v exceeds volcano %v", mono.Cost, volcano.Cost)
	}
	if !cost.Eq(mono.Cost, exh.Cost) {
		t.Errorf("monotonic cost %v != exhaustive cost %v", mono.Cost, exh.Cost)
	}
}

// TestParallelismDoesNotChangeIncrementalState: after a greedy run that
// follows a Volcano-RU run on the same DAG, the DAG's costing state
// describes the greedy result exactly — nothing of the earlier search's
// what-ifs survives into it.
func TestParallelismDoesNotChangeIncrementalState(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	ru := mustOptimize(t, pd, VolcanoRU)
	checkStateDescribes(t, pd, ru, "volcano-ru")
	res := mustOptimize(t, pd, Greedy)
	if len(res.Materialized) == 0 {
		t.Fatal("fixture has no shared results; the check would be trivial")
	}
	checkStateDescribes(t, pd, res, "greedy after volcano-ru")
}

// TestVolcanoRUConcurrentMatchesSerial: Volcano-RU runs its forward pass,
// rolls it back and runs its reverse pass. Run twice on one DAG
// it returns the same result both times, the result a fresh build gives, and
// leaves the DAG's costing state describing that result.
func TestVolcanoRUConcurrentMatchesSerial(t *testing.T) {
	for seed := int64(60); seed < 66; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := randomBatch(rng)
		pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := freshSignature(t, batch, VolcanoRU, Options{})
		for rep := 0; rep < 2; rep++ {
			res, err := Optimize(context.Background(), pd, VolcanoRU, Options{})
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, rep, err)
			}
			if got := resultSignature(res); got != want {
				t.Errorf("seed %d run %d: differs from a fresh build's:\n%s", seed, rep, diffHint(want, got))
			}
			checkStateDescribes(t, pd, res, "volcano-ru")
		}
	}
}

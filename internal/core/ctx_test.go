package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mqo/internal/algebra"
)

// countdownCtx reports the context as cancelled after its Err method has
// been consulted n times. Because Optimize's checkpoints poll ctx.Err(),
// this deterministically triggers cancellation in the middle of an
// algorithm's main loop, without any timing dependence.
type countdownCtx struct {
	context.Context
	n int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.n, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestOptimizePreCancelled: a context cancelled before the call aborts
// every algorithm immediately with context.Canceled.
func TestOptimizePreCancelled(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range Algorithms() {
		if _, err := Optimize(ctx, pd, alg, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: got err %v, want context.Canceled", alg, err)
		}
	}
}

// TestGreedyCancelledMidLoop: cancellation at any checkpoint of each of
// Greedy's three loops (simulated deterministically with countdownCtx) —
// before the first pick, between picks, between two benefits of a wave —
// aborts the run with ctx.Err() instead of returning a result.
func TestGreedyCancelledMidLoop(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	// Sanity: uncancelled, the same DAG optimizes fine and has candidates
	// for the greedy loop to iterate over.
	res := mustOptimize(t, pd, Greedy)
	if len(res.Materialized) == 0 {
		t.Fatal("fixture has no shared results; greedy loop would be trivial")
	}
	for _, variant := range []struct {
		name string
		opt  Options
	}{
		{"monotonic", Options{}},
		{"exhaustive", Options{Greedy: GreedyOptions{DisableMonotonicity: true}}},
		{"space-budget", Options{Greedy: GreedyOptions{SpaceBudgetBytes: 1 << 30}}},
	} {
		// Sweep the cancellation point from the first poll after Optimize's
		// entry checkpoint to the first one the run never reaches.
		n := int32(1)
		for ; ; n++ {
			ctx := &countdownCtx{Context: context.Background(), n: n}
			res, err := Optimize(ctx, pd, Greedy, variant.opt)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("greedy/%s n=%d: got (%v, %v), want (nil, context.Canceled)", variant.name, n, res, err)
			}
		}
		// Entry, the pre-scan check and a wave's own check come before
		// the first benefit: a sweep past them reached inside the loop.
		if n <= 4 {
			t.Errorf("greedy/%s: the run polled %d times, never inside its loop", variant.name, n)
		}
	}
}

// TestGreedyCancelledBeforeCandidateScan: optimizeGreedy consults the
// context before the sharability analysis and candidate scan, so a run
// that is already dead does no stats work at all. countdownCtx n=1 is
// consumed by Optimize's entry checkpoint; the very next poll — greedy's
// pre-scan check — must abort the run.
func TestGreedyCancelledBeforeCandidateScan(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	ctx := &countdownCtx{Context: context.Background(), n: 1}
	res, err := Optimize(ctx, pd, Greedy, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run leaked a Result (stats %+v)", res.Stats)
	}
}

// TestCancelledRunDoesNotLeakStats: instrumentation accumulated by a
// cancelled run (greedy candidate scans, benefit recomputations, what-if
// propagation counters) must not surface in the Stats of a subsequent
// successful run on the same DAG.
func TestCancelledRunDoesNotLeakStats(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	clean, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel mid-loop: work happens, then the run dies.
	ctx := &countdownCtx{Context: context.Background(), n: 5}
	if res, err := Optimize(ctx, pd, Greedy, Options{}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled run returned (%v, %v)", res, err)
	}
	after, err := Optimize(context.Background(), pd, Greedy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.BenefitRecomputations != clean.Stats.BenefitRecomputations ||
		after.Stats.CostPropagations != clean.Stats.CostPropagations ||
		after.Stats.CostRecomputations != clean.Stats.CostRecomputations ||
		after.Stats.Candidates != clean.Stats.Candidates {
		t.Errorf("stats after a cancelled run differ from a clean run:\nclean %+v\nafter %+v",
			clean.Stats, after.Stats)
	}
}

// TestParallelGreedyCancelledMidLoop: each of Greedy's three loops,
// cancelled on its second poll, returns (nil, context.Canceled), and the
// uncancelled run that follows on the same DAG returns what a fresh build
// gives. The name is from when the loops fanned out over workers.
func TestParallelGreedyCancelledMidLoop(t *testing.T) {
	queries := []*algebra.Tree{chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990)}
	pd := mustBuild(t, queries...)
	for _, variant := range []struct {
		name string
		opt  Options
	}{
		{"monotonic", Options{}},
		{"exhaustive", Options{Greedy: GreedyOptions{DisableMonotonicity: true}}},
		{"space-budget", Options{Greedy: GreedyOptions{SpaceBudgetBytes: 1 << 30}}},
	} {
		ctx := &countdownCtx{Context: context.Background(), n: 2}
		res, err := Optimize(ctx, pd, Greedy, variant.opt)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("greedy/%s: got (%v, %v), want (nil, context.Canceled)", variant.name, res, err)
		}
		after, err := Optimize(context.Background(), pd, Greedy, variant.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultSignature(after), freshSignature(t, queries, Greedy, variant.opt); got != want {
			t.Errorf("greedy/%s after a cancelled run differs from a fresh build's:\n%s",
				variant.name, diffHint(want, got))
		}
	}
}

// TestVolcanoRUCancelledMidLoop: the per-query RU loop honours
// cancellation too.
func TestVolcanoRUCancelledMidLoop(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	ctx := &countdownCtx{Context: context.Background(), n: 1}
	if _, err := Optimize(ctx, pd, VolcanoRU, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("volcano-ru: got err %v, want context.Canceled", err)
	}
}

// TestVolcanoRUCancelledLeavesStateClean: each order pass is rolled back on
// every path out of it, so a run cancelled at ANY checkpoint —
// mid-forward-pass, mid-reverse-pass, inside the SH phase — leaves the
// DAG's costing state exactly as Optimize's entry reset left it: an empty
// materialized set whose costs agree with scratch recosting.
func TestVolcanoRUCancelledLeavesStateClean(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990),
		chain([]string{"S", "T", "P"}, 980))
	// Sweep the cancellation point across every checkpoint the algorithm
	// polls, from "immediately" to "never reached".
	for n := int32(1); n < 16; n++ {
		ctx := &countdownCtx{Context: context.Background(), n: n}
		res, err := Optimize(ctx, pd, VolcanoRU, Options{})
		if err == nil {
			break // countdown outlived the run: nothing left to probe
		}
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("n=%d: cancelled run returned (%v, %v)", n, res, err)
		}
		if got := pd.MaterializedSet(); len(got) != 0 {
			t.Fatalf("n=%d: cancelled RU left %d nodes materialized on the DAG", n, len(got))
		}
		if want := pd.BestCostWith(nil); pd.TotalCost() != want {
			t.Fatalf("n=%d: cancelled RU left inconsistent costs (%v vs scratch %v)", n, pd.TotalCost(), want)
		}
	}
}

// TestVolcanoRUCancelledRunDoesNotLeakStats mirrors the greedy post-cancel
// hygiene test: instrumentation accumulated by a cancelled RU run must not
// surface in the Stats of a subsequent successful run on the same DAG, and
// the subsequent run must return the identical result.
func TestVolcanoRUCancelledRunDoesNotLeakStats(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	clean, err := Optimize(context.Background(), pd, VolcanoRU, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background(), n: 2}
	if res, err := Optimize(ctx, pd, VolcanoRU, Options{}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled run returned (%v, %v)", res, err)
	}
	after, err := Optimize(context.Background(), pd, VolcanoRU, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cost != clean.Cost || after.Plan.String() != clean.Plan.String() {
		t.Errorf("result after a cancelled run diverged (cost %v vs %v)", after.Cost, clean.Cost)
	}
	if after.Stats.CostPropagations != clean.Stats.CostPropagations ||
		after.Stats.CostRecomputations != clean.Stats.CostRecomputations {
		t.Errorf("stats after a cancelled run differ from a clean run:\nclean %+v\nafter %+v",
			clean.Stats, after.Stats)
	}
}

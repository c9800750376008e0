package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// speculationWidth is the fixed number of stale heap entries the monotonic
// greedy loop recomputes per evaluation wave. It is a constant — not tied
// to Options.Parallelism — so the sequence of benefit recomputations, and
// therefore the chosen materialization set, is bit-identical at every
// parallelism level; Parallelism only decides how many workers evaluate
// the wave concurrently. The extra serial work this batching costs over
// the classic recompute-one-at-a-time schedule is bounded by the
// once-per-version rule and is ~1% in practice (BQ5 monotonic: 216
// recomputations at width 8 vs 214 at width 1), a price worth paying for
// worker-count-independent plans.
const speculationWidth = 8

// maxAutoWorkers caps auto-tuned fan-out: benefit evaluation saturates
// memory bandwidth long before it saturates large core counts, and the
// serial-vs-parallel BQ5 measurements showed no gain past 8 workers.
const maxAutoWorkers = 8

// Serial/fan-out crossovers of the three search phases, in work units
// (items × DAG nodes): a phase whose estimate falls below its crossover
// runs serially, above it it fans out. They differ because the phases do
// different work per unit, so one shared constant mis-tunes two of the
// three. Crossovers move wall-clock only, never the chosen plan.
//
// The greedy and Volcano-RU figures below are medians of five 0.5 s runs
// per side, workers 1 against 2 at GOMAXPROCS 2, over opt_scaleup's batches
// (BenchmarkOptimizeAllAlgorithms runs the same batches end to end), after
// propagation went decrease-only and a what-if got cheaper.
const (
	// Greedy benefit waves (engine.go): each item propagates costs through a
	// CostView overlay, and a wave pays a fixed price for waking its workers.
	// A wave of the exhaustive loop (DisableMonotonicity), which holds every
	// remaining candidate, pays it back from CQ1 (8 568 units: 0.61 → 0.54
	// ms) and BQ2 (40 698: 3.35 → 2.47 ms) up — BQ5x6 238 → 150 ms — and
	// not at BQ1 (1 150: 0.12 → 0.16 ms). A wave of the monotonic loop holds
	// at most speculationWidth candidates: two workers tied at CQ2 and lost
	// on every other batch, BQ1 to BQ5x6 (+10 to +100 %; BQ5x6 17.7 → 22.0
	// ms), so waves that narrow run serially (newSearchEngine). Was 32768
	// while every wave fanned out by this estimate.
	benefitCrossover = 4096
	// Sharability analysis (§4.1), one logical group per item, an item one
	// pass of the recurrences over flat arrays (sharability.go). Lowered
	// from 65536 when the pass moved off its scratch map: re-measured with
	// BenchmarkSharability at -cpu 1,2 and the smaller BQ/CQ batches, two
	// workers tie or lose up to BQ4 (14.8K units) and win from BQ5 (18.6K,
	// 0.31 → 0.23 ms) and CQ3 (21.8K) up; CQ5 (67.3K) 0.98 → 0.64 ms. It
	// runs once per physical DAG (memoSharability).
	sharabilityCrossover = 16384
	// Volcano-RU's forward/reverse order passes: two heavy items, almost no
	// scheduling overhead. Running them concurrently loses at CQ1 (476
	// units: 0.21 → 0.24 ms) and wins from BQ2 (1 292: 0.54 → 0.51 ms) and
	// BQ3 (2 568: 1.06 → 0.79 ms) up; CQ5 (30 780) 3.41 → 2.98 ms. Was 16384,
	// which kept every batch below CQ4 serial.
	ruCrossover = 1024
)

// resolveWorkers maps the Options.Parallelism knob to a concrete worker
// count for a phase with the given crossover and work estimate: 0
// auto-tunes (serial below the crossover, up to maxAutoWorkers hardware
// threads above it), anything below 1 is serial, and explicit counts are
// taken as given. The choice affects wall-clock only — every worker count
// produces the identical plan.
func resolveWorkers(crossover, parallelism, units int) int {
	switch {
	case parallelism > 0:
		return parallelism
	case parallelism < 0 || units < crossover:
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), maxAutoWorkers))
}

// parallelFor runs body(worker, i) for every i in [0, n) across the given
// number of workers, handing each invocation a stable worker index in
// [0, workers) so callers can keep per-worker state (CostViews, scratch
// maps). Work is handed out by an atomic counter, so which worker runs
// which item is scheduling-dependent — bodies must be written so the
// results do not depend on the assignment. A nil context never cancels;
// otherwise workers stop early once ctx is done and parallelFor returns
// ctx.Err().
func parallelFor(ctx context.Context, workers, n int, body func(worker, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			body(0, i)
		}
		return nil
	}
	var (
		next      atomic.Int64
		cancelled atomic.Bool
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
	if cancelled.Load() || ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

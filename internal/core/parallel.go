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
const (
	// Greedy benefit waves (engine.go): each item propagates costs through a
	// CostView overlay; BQ-scale waves amortize the worker wakeups and
	// per-view bookkeeping at about this much propagation work, and smaller
	// batches were faster serial at every worker count.
	benefitCrossover = 32768
	// Sharability analysis (§4.1), one logical group per item, an item one
	// pass of the recurrences over flat arrays (sharability.go). Lowered
	// from 65536 when the pass moved off its scratch map: re-measured with
	// BenchmarkSharability at -cpu 1,2 and the smaller BQ/CQ batches, two
	// workers tie or lose up to BQ4 (14.8K units) and win from BQ5 (18.6K,
	// 0.31 → 0.23 ms) and CQ3 (21.8K) up; CQ5 (67.3K) 0.98 → 0.64 ms.
	sharabilityCrossover = 16384
	// Volcano-RU's forward/reverse order passes: two heavy items, almost no
	// scheduling overhead, so running them concurrently wins at half the
	// benefit crossover.
	ruCrossover = 16384
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

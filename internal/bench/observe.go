package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/obs"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// Observe measures the observability layer's overhead on a real executed
// workload: the four SSB flights optimized (Greedy) and executed back to
// back, with the metrics registry and per-operator profiling fully on
// versus fully off. Each mode reports its best-of-N wall clock; the overhead
// row carries the instrumented slowdown percentage CI gates at ≤5%, taken
// over pairs of adjacent passes. Row counts must be identical in
// both modes — instrumentation may observe the execution, never change it.
func Observe() (*Experiment, error) {
	const sf, seed = 0.01, 11
	model := cost.DefaultModel()
	cat := ssb.Catalog(sf)
	db := storage.NewDB(1024)
	if err := ssb.LoadDB(db, sf, seed); err != nil {
		return nil, err
	}

	batches := make([][]*algebra.Tree, ssb.NumFlights)
	for n := 1; n <= ssb.NumFlights; n++ {
		batches[n-1] = ssb.Flight(n)
	}

	// pass optimizes and executes the whole flight sequence once and
	// returns the total row count (a cross-mode equality check).
	pass := func(profile bool) (int64, error) {
		var rows int64
		for _, queries := range batches {
			pd, err := core.BuildDAG(cat, model, queries)
			if err != nil {
				return 0, err
			}
			res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
			if err != nil {
				return 0, err
			}
			results, _, err := exec.Run(context.Background(), db, model, res.Plan, &exec.Env{Profile: profile})
			if err != nil {
				return 0, err
			}
			for _, qr := range results {
				rows += int64(len(qr.Rows))
			}
		}
		return rows, nil
	}

	// The modes alternate pass by pass and the overhead is the median over
	// the pairs of one pass against the other: this machine runs up to half
	// slower for seconds at a time, which a pair shares and two best-of-N
	// taken one after the other do not. Which mode leads alternates too, so
	// neither always runs second, on the heap and caches the first left.
	const reps = 25
	var best [2]time.Duration
	var rows [2]int64
	ratios := make([]float64, 0, reps)
	for rep := -1; rep < reps; rep++ { // rep -1 warms up: page cache, allocator
		var d [2]time.Duration
		for i := range 2 {
			mode := i // 0 uninstrumented, 1 instrumented
			if rep%2 != 0 {
				mode = 1 - i
			}
			instrumented := mode == 1
			obs.SetEnabled(instrumented)
			start := time.Now()
			r, err := pass(instrumented)
			d[mode] = time.Since(start)
			obs.SetEnabled(true)
			if err != nil {
				return nil, fmt.Errorf("instrumented=%v: %w", instrumented, err)
			}
			if rep < 0 {
				rows[mode] = r
			} else if r != rows[mode] {
				return nil, fmt.Errorf("row count diverged across passes: %d vs %d", r, rows[mode])
			} else if rep == 0 || d[mode] < best[mode] {
				best[mode] = d[mode]
			}
		}
		if rep >= 0 {
			ratios = append(ratios, d[1].Seconds()/d[0].Seconds())
		}
	}
	base, baseRows, instr, instrRows := best[0], rows[0], best[1], rows[1]
	if baseRows != instrRows {
		return nil, fmt.Errorf("instrumentation changed results: %d rows vs %d", instrRows, baseRows)
	}
	sort.Float64s(ratios)
	overheadPct := 100 * (ratios[len(ratios)/2] - 1)

	e := &Experiment{Name: "observe", Title: fmt.Sprintf(
		"Observability overhead: SSB flights 1-4, metrics+profiling on vs off (SF %g, seed %d, best of %d)",
		sf, seed, reps)}
	e.Rows = append(e.Rows,
		Row{Label: "disabled", Extra: map[string]float64{
			"wall_s": base.Seconds(), "rows": float64(baseRows)}},
		Row{Label: "instrumented", Extra: map[string]float64{
			"wall_s": instr.Seconds(), "rows": float64(instrRows)}},
		Row{Label: "overhead", Extra: map[string]float64{
			"base_s": base.Seconds(), "instrumented_s": instr.Seconds(),
			"overhead_pct": overheadPct}},
	)
	e.Notes = append(e.Notes,
		"instrumented: registry metrics recording on and every operator wrapped with rows/pages/wall counters (exec.Env.Profile); disabled: obs.SetEnabled(false), no profiling.",
		"wall_s is the best of the measured repetitions per mode; overhead_pct is the median, over pairs of adjacent passes, of the instrumented slowdown, which CI gates at <=5%.",
	)
	return e, nil
}

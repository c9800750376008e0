package bench

import (
	"context"
	"fmt"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// ResultCacheReplay measures what the cross-batch result cache buys on a
// repeated-tenant workload: the same sequence of query batches (each
// "tenant" re-issuing its report queries) replayed twice against generated
// TPC-D data, once with the row-backed result cache and once without. The
// cache-on second pass must run strictly cheaper — real cache-table scans
// replace recomputation — while returning row-for-row identical results
// (enforced in-experiment; the run errors out on any divergence). This is
// the experiment CI archives as BENCH_5.json.
func ResultCacheReplay(budgetBytes int64) (*Experiment, error) {
	const sf = 0.01
	if budgetBytes <= 0 {
		budgetBytes = 16 << 20
	}
	model := cost.DefaultModel()
	cat := tpcd.Catalog(sf)

	// The tenant workload: three report batches per replay pass, issued in
	// sequence the way the micro-batcher would dispatch them.
	batches := [][]*algebra.Tree{
		tpcd.BatchQueries(1),
		{tpcd.Q11()},
		{tpcd.Q15()},
	}
	const passes = 2

	type passStats struct {
		reads, writes int64
		simTime       float64
	}
	runSequence := func(db *storage.DB, store *cache.Manager) ([]passStats, [][]string, error) {
		var stats []passStats
		var rows [][]string
		for pass := 0; pass < passes; pass++ {
			var ps passStats
			for _, queries := range batches {
				pd, err := core.BuildDAG(cat, model, queries)
				if err != nil {
					return nil, nil, err
				}
				var ticket *cache.Ticket
				if store != nil {
					ticket = store.Arm(pd, nil)
				}
				res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
				if err != nil {
					return nil, nil, err
				}
				env := &exec.Env{}
				if ticket != nil {
					env.Cache = &exec.CacheIO{Spools: ticket.PlanSpools(res.Plan)}
				}
				results, runStats, err := exec.Run(context.Background(), db, model, res.Plan, env)
				if err != nil {
					if ticket != nil {
						ticket.Abort()
					}
					return nil, nil, err
				}
				if ticket != nil {
					ticket.Commit()
				}
				ps.reads += runStats.IO.Reads
				ps.writes += runStats.IO.Writes
				ps.simTime += runStats.SimTime
				for _, qr := range results {
					rows = append(rows, exec.Canonicalize(qr.Schema, qr.Rows))
				}
			}
			stats = append(stats, ps)
		}
		return stats, rows, nil
	}

	load := func() (*storage.DB, error) {
		db := storage.NewDB(1024)
		return db, tpcd.LoadDB(db, sf, 11)
	}

	dbOff, err := load()
	if err != nil {
		return nil, err
	}
	off, offRows, err := runSequence(dbOff, nil)
	if err != nil {
		return nil, fmt.Errorf("cache-off replay: %w", err)
	}
	dbOn, err := load()
	if err != nil {
		return nil, err
	}
	store := cache.NewStoreTiered(dbOn, model, budgetBytes, 0, 1)
	on, onRows, err := runSequence(dbOn, store)
	if err != nil {
		return nil, fmt.Errorf("cache-on replay: %w", err)
	}

	// Correctness gate: cache-on results must be row-for-row identical to
	// cache-off across every batch of every pass.
	if len(onRows) != len(offRows) {
		return nil, fmt.Errorf("result-set count diverged: %d vs %d", len(onRows), len(offRows))
	}
	for i := range offRows {
		if len(onRows[i]) != len(offRows[i]) {
			return nil, fmt.Errorf("query %d: %d rows with cache vs %d without", i, len(onRows[i]), len(offRows[i]))
		}
		for j := range offRows[i] {
			if onRows[i][j] != offRows[i][j] {
				return nil, fmt.Errorf("query %d row %d diverged under the result cache", i, j)
			}
		}
	}
	// Speedup gate: the second cache-on pass must read strictly less than
	// the cache-off second pass (it scans spooled tables instead of
	// recomputing joins).
	if on[1].reads >= off[1].reads {
		return nil, fmt.Errorf("cache-on replay reads %d not below cache-off %d", on[1].reads, off[1].reads)
	}

	st := store.Stats()
	e := &Experiment{Name: "resultcache", Title: fmt.Sprintf(
		"Result-cache replay: %d tenant batches × %d passes (TPC-D SF %g, budget %d MB)",
		len(batches), passes, sf, budgetBytes>>20)}
	for pass := 0; pass < passes; pass++ {
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("pass%d", pass+1),
			Extra: map[string]float64{
				"off_reads": float64(off[pass].reads), "on_reads": float64(on[pass].reads),
				"off_writes": float64(off[pass].writes), "on_writes": float64(on[pass].writes),
				"off_sim_s": off[pass].simTime, "on_sim_s": on[pass].simTime,
				"sim_saved_s": off[pass].simTime - on[pass].simTime,
			},
		})
	}
	e.Rows = append(e.Rows, Row{
		Label: "store",
		Extra: map[string]float64{
			"hit_rate":       st.HitRate(),
			"hits":           float64(st.Hits),
			"hit_batches":    float64(st.HitBatches),
			"admissions":     float64(st.Admissions),
			"evictions":      float64(st.Evictions),
			"entries":        float64(st.Entries),
			"used_bytes":     float64(st.UsedBytes),
			"saved_cost_est": st.SavedCostEst,
		},
	})
	e.Notes = append(e.Notes,
		"Row-for-row result equality cache-on vs cache-off and a strict second-pass read reduction are enforced in-experiment; a violation fails the run.",
		"on_writes of pass 1 exceeds off_writes: spooling the admitted results is the investment the second pass collects on.")
	return e, nil
}

package bench

import (
	"context"
	"fmt"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// replayPass aggregates measured execution over one pass of a replayed
// batch sequence.
type replayPass struct {
	reads, writes int64
	simTime       float64
}

// runReplay executes a sequence of batches for the given number of passes
// against db, arming the result cache around every batch when store is
// non-nil, and returns per-pass IO stats plus every query's canonicalized
// rows in issue order.
func runReplay(cat *catalog.Catalog, model cost.Model, batches [][]*algebra.Tree, passes int,
	db *storage.DB, store *cache.Manager) ([]replayPass, [][]string, error) {
	var stats []replayPass
	var rows [][]string
	for pass := 0; pass < passes; pass++ {
		var ps replayPass
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

// replayMode measures one cache-replay scenario (a fixed batch sequence
// replayed twice with and without the result cache over identically
// generated databases), enforces the correctness and speedup gates
// in-experiment, and appends its rows to e.
func replayMode(e *Experiment, label string, cat *catalog.Catalog, model cost.Model,
	batches [][]*algebra.Tree, load func() (*storage.DB, error), budgetBytes int64) error {
	const passes = 2
	dbOff, err := load()
	if err != nil {
		return err
	}
	off, offRows, err := runReplay(cat, model, batches, passes, dbOff, nil)
	if err != nil {
		return fmt.Errorf("%s cache-off replay: %w", label, err)
	}
	dbOn, err := load()
	if err != nil {
		return err
	}
	store := cache.NewStoreTiered(dbOn, model, budgetBytes, 0, 1)
	on, onRows, err := runReplay(cat, model, batches, passes, dbOn, store)
	if err != nil {
		return fmt.Errorf("%s cache-on replay: %w", label, err)
	}
	if len(onRows) != len(offRows) {
		return fmt.Errorf("%s: result-set count diverged: %d vs %d", label, len(onRows), len(offRows))
	}
	for i := range offRows {
		if len(onRows[i]) != len(offRows[i]) {
			return fmt.Errorf("%s query %d: %d rows with cache vs %d without", label, i, len(onRows[i]), len(offRows[i]))
		}
		for j := range offRows[i] {
			if onRows[i][j] != offRows[i][j] {
				return fmt.Errorf("%s query %d row %d diverged under the result cache", label, i, j)
			}
		}
	}
	if on[1].reads >= off[1].reads {
		return fmt.Errorf("%s: cache-on second-pass reads %d not below cache-off %d", label, on[1].reads, off[1].reads)
	}
	st := store.Stats()
	if st.Hits < 1 {
		return fmt.Errorf("%s: result cache recorded no hits", label)
	}
	for pass := 0; pass < passes; pass++ {
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("%s-pass%d", label, pass+1),
			Extra: map[string]float64{
				"off_reads": float64(off[pass].reads), "on_reads": float64(on[pass].reads),
				"off_writes": float64(off[pass].writes), "on_writes": float64(on[pass].writes),
				"off_sim_s": off[pass].simTime, "on_sim_s": on[pass].simTime,
				"sim_saved_s": off[pass].simTime - on[pass].simTime,
			},
		})
	}
	e.Rows = append(e.Rows, Row{
		Label: label + "-store",
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
	return nil
}

// SSB measures the Star Schema Benchmark workload end to end: per-flight
// MQO cost savings of every algorithm against the no-sharing Volcano
// baseline (at the catalog statistics of the given scale factor), then
// two result-cache replay scenarios over generated data — cross-dimension
// reuse (the four flights issued in sequence, so later flights and the
// second pass reuse the fact-scan and dimension-join intermediates) and
// hierarchical drill-down reuse (each flight's parameter-tightening
// sequence issued step by step). Row-for-row result equality cache-on vs
// cache-off, a strict second-pass read reduction, and a nonzero hit count
// are enforced in-experiment. This is the experiment CI archives as
// BENCH_6.json.
func SSB(sf float64, seed int64, budgetBytes int64) (*Experiment, error) {
	if sf <= 0 {
		sf = 0.01
	}
	if seed == 0 {
		seed = 11
	}
	if budgetBytes <= 0 {
		budgetBytes = 16 << 20
	}
	model := cost.DefaultModel()
	cat := ssb.Catalog(sf)

	e := &Experiment{Name: "ssb", Title: fmt.Sprintf(
		"Star Schema Benchmark: 4 flights + replay reuse (SF %g, seed %d, budget %d MB)",
		sf, seed, budgetBytes>>20)}

	// Per-flight optimization: every algorithm prices the flight batch; the
	// heuristics' savings against plain Volcano are what MQO buys on a star
	// flight that shares one fact scan across its queries.
	for n := 1; n <= ssb.NumFlights; n++ {
		cells, err := optimizeAll(cat, model, ssb.Flight(n))
		if err != nil {
			return nil, fmt.Errorf("flight %d: %w", n, err)
		}
		noshare := cells[0].Cost // Volcano is Algorithms()[0]
		mqo := cells[len(cells)-1].Cost
		for _, c := range cells {
			if c.Cost < mqo {
				mqo = c.Cost
			}
		}
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("flight%d", n),
			Cells: cells,
			Extra: map[string]float64{
				"noshare_cost": noshare,
				"mqo_cost":     mqo,
				"saved_pct":    100 * (1 - mqo/noshare),
			},
		})
	}

	load := func() (*storage.DB, error) {
		db := storage.NewDB(1024)
		return db, ssb.LoadDB(db, sf, seed)
	}

	// Cross-dimension reuse: the four flights as four consecutive batches.
	crossdim := make([][]*algebra.Tree, ssb.NumFlights)
	for n := 1; n <= ssb.NumFlights; n++ {
		crossdim[n-1] = ssb.Flight(n)
	}
	if err := replayMode(e, "crossdim", cat, model, crossdim, load, budgetBytes); err != nil {
		return nil, err
	}

	// Drill-down reuse: every flight's 3-step tightening sequence, one
	// single-query batch per step, interleaved in flight order.
	var drill [][]*algebra.Tree
	for n := 1; n <= ssb.NumFlights; n++ {
		drill = append(drill, ssb.DrillDown(n, 3)...)
	}
	if err := replayMode(e, "drilldown", cat, model, drill, load, budgetBytes); err != nil {
		return nil, err
	}

	e.Notes = append(e.Notes,
		"flightN rows: estimated batch cost per algorithm at SF statistics; mqo_cost is the best heuristic, noshare_cost the Volcano baseline.",
		"crossdim/drilldown rows: measured page IO of the replayed sequence with the result cache off vs on; equality of result rows and a strict second-pass read reduction are enforced in-experiment.",
	)
	return e, nil
}

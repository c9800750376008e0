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
	"mqo/internal/tpcd"
)

// paramBatch is one armed-and-executed batch of a parameterized replay: a
// query batch plus the binding sets its Invoke bodies run under.
type paramBatch struct {
	queries []*algebra.Tree
	sets    []map[string]algebra.Value
}

// runParamReplay executes a sequence of parameterized batches against db,
// arming the result cache (whole-expression and per-binding) around every
// batch when store is non-nil. Returns per-batch IO stats plus every query's
// canonicalized rows in issue order.
func runParamReplay(cat *catalog.Catalog, model cost.Model, batches []paramBatch,
	db *storage.DB, store *cache.Manager) ([]replayPass, [][]string, error) {
	var stats []replayPass
	var rows [][]string
	for _, b := range batches {
		var ps replayPass
		pd, err := core.BuildDAG(cat, model, b.queries)
		if err != nil {
			return nil, nil, err
		}
		var ticket *cache.Ticket
		if store != nil {
			ticket = store.Arm(pd, b.sets)
		}
		res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		env := &exec.Env{ParamSets: b.sets}
		if ticket != nil {
			env.Cache = &exec.CacheIO{
				Spools:     ticket.PlanSpools(res.Plan),
				BindSpools: ticket.BindingSpools(),
			}
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
		ps.reads = runStats.IO.Reads
		ps.writes = runStats.IO.Writes
		ps.simTime = runStats.SimTime
		for _, qr := range results {
			rows = append(rows, exec.Canonicalize(qr.Schema, qr.Rows))
		}
		stats = append(stats, ps)
	}
	return stats, rows, nil
}

// paramScenario measures one parameterized-replay scenario — the same batch
// issued twice with overlapping binding sets, cache off vs on over
// identically generated databases — enforces row equality and the strict
// second-pass read reduction, and appends its rows to e. Returns the on-run
// store so the caller can gate on binding-level stats.
func paramScenario(e *Experiment, label string, cat *catalog.Catalog, model cost.Model,
	batches []paramBatch, load func() (*storage.DB, error), budgetBytes int64) (cache.Stats, error) {
	dbOff, err := load()
	if err != nil {
		return cache.Stats{}, err
	}
	off, offRows, err := runParamReplay(cat, model, batches, dbOff, nil)
	if err != nil {
		return cache.Stats{}, fmt.Errorf("%s cache-off replay: %w", label, err)
	}
	dbOn, err := load()
	if err != nil {
		return cache.Stats{}, err
	}
	store := cache.NewStoreTiered(dbOn, model, budgetBytes, 0, 1)
	on, onRows, err := runParamReplay(cat, model, batches, dbOn, store)
	if err != nil {
		return cache.Stats{}, fmt.Errorf("%s cache-on replay: %w", label, err)
	}
	if len(onRows) != len(offRows) {
		return cache.Stats{}, fmt.Errorf("%s: result-set count diverged: %d vs %d", label, len(onRows), len(offRows))
	}
	for i := range offRows {
		if len(onRows[i]) != len(offRows[i]) {
			return cache.Stats{}, fmt.Errorf("%s query %d: %d rows with cache vs %d without", label, i, len(onRows[i]), len(offRows[i]))
		}
		for j := range offRows[i] {
			if onRows[i][j] != offRows[i][j] {
				return cache.Stats{}, fmt.Errorf("%s query %d row %d diverged under the binding cache", label, i, j)
			}
		}
	}
	last := len(batches) - 1
	if on[last].reads >= off[last].reads {
		return cache.Stats{}, fmt.Errorf("%s: cache-on second-pass reads %d not below cache-off %d",
			label, on[last].reads, off[last].reads)
	}
	for pass := range batches {
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
	st := store.Stats()
	e.Rows = append(e.Rows, Row{
		Label: label + "-store",
		Extra: map[string]float64{
			"entries":         float64(st.Entries),
			"binding_entries": float64(st.BindingEntries),
			"used_bytes":      float64(st.UsedBytes),
			"hits":            float64(st.Hits),
		},
	})
	return st, nil
}

// ParamCache measures the per-binding result cache on the paper's §5
// workloads: parameterized queries (SSB flight-1 drill-down with the month
// as an Invoke parameter) and correlated nested queries (TPC-D Q2 in its
// "not in" variant, invoked per outer p_partkey binding). Each scenario
// issues the same batch twice with overlapping binding sets; the second
// pass must arm a partial hit — cached bindings served from their spooled
// tables, residual bindings recomputed through the body — with byte-equal
// rows and strictly fewer base reads than the cache-off replay. This is the
// experiment CI archives as BENCH_10.json.
func ParamCache(sf float64, seed int64, budgetBytes int64) (*Experiment, error) {
	if sf <= 0 {
		sf = 0.01
	}
	if seed == 0 {
		seed = 17
	}
	if budgetBytes <= 0 {
		budgetBytes = 16 << 20
	}
	model := cost.DefaultModel()

	e := &Experiment{Name: "paramcache", Title: fmt.Sprintf(
		"Per-binding result cache: parameterized + correlated replay (SF %g, seed %d, budget %d MB)",
		sf, seed, budgetBytes>>20)}

	// Parameterized drill-down: pass 1 runs months 1..6, pass 2 months 4..9 —
	// 3 bindings overlap (partial hit), 3 are new (residual recompute).
	ssbCat := ssb.Catalog(sf)
	ssbLoad := func() (*storage.DB, error) {
		db := storage.NewDB(1024)
		return db, ssb.LoadDB(db, sf, seed)
	}
	drill := ssb.DrillParam(6)
	ssbBatches := []paramBatch{
		{queries: drill, sets: ssb.DrillParamBindings(1, 2, 3, 4, 5, 6)},
		{queries: drill, sets: ssb.DrillParamBindings(4, 5, 6, 7, 8, 9)},
	}
	ssbStats, err := paramScenario(e, "ssbdrill", ssbCat, model, ssbBatches, ssbLoad, budgetBytes)
	if err != nil {
		return nil, err
	}

	// Correlated Q2-NI: the nested body runs once per outer p_partkey
	// binding; pass 2's binding window overlaps pass 1's by half.
	q2SF := sf * 2
	q2Cat := tpcd.Catalog(q2SF)
	q2Load := func() (*storage.DB, error) {
		db := storage.NewDB(1024)
		return db, tpcd.LoadDB(db, q2SF, seed)
	}
	q2 := tpcd.Q2NI(q2SF)
	q2Batches := []paramBatch{
		{queries: q2, sets: pkBindings(1, 8)},
		{queries: q2, sets: pkBindings(5, 12)},
	}
	q2Stats, err := paramScenario(e, "q2ni", q2Cat, model, q2Batches, q2Load, budgetBytes)
	if err != nil {
		return nil, err
	}

	// Each scenario runs its own store, so the binding counters gate
	// per-scenario: both the parameterized and the correlated workload must
	// arm a partial hit, recompute residual bindings, and record binding
	// hits and admissions on their own.
	for _, sc := range []struct {
		label string
		st    cache.Stats
	}{{"ssbdrill", ssbStats}, {"q2ni", q2Stats}} {
		if sc.st.BindingPartialHits < 1 {
			return nil, fmt.Errorf("paramcache: %s armed no partial hit on its second pass", sc.label)
		}
		if sc.st.BindingResidual < 1 {
			return nil, fmt.Errorf("paramcache: %s recomputed no residual bindings", sc.label)
		}
		if sc.st.BindingAdmissions < 1 || sc.st.BindingHits < 1 {
			return nil, fmt.Errorf("paramcache: %s binding admissions (%d) or hits (%d) missing",
				sc.label, sc.st.BindingAdmissions, sc.st.BindingHits)
		}
		if sc.st.BindingEntries < 1 {
			return nil, fmt.Errorf("paramcache: %s admitted no binding entries", sc.label)
		}
	}
	partial := float64(ssbStats.BindingPartialHits + q2Stats.BindingPartialHits)
	residual := float64(ssbStats.BindingResidual + q2Stats.BindingResidual)
	bindHits := float64(ssbStats.BindingHits + q2Stats.BindingHits)
	bindAdm := float64(ssbStats.BindingAdmissions + q2Stats.BindingAdmissions)

	offR2 := func(label string) float64 {
		for _, r := range e.Rows {
			if r.Label == label {
				return r.Extra["off_reads"]
			}
		}
		return 0
	}
	onR2 := func(label string) float64 {
		for _, r := range e.Rows {
			if r.Label == label {
				return r.Extra["on_reads"]
			}
		}
		return 0
	}
	e.Rows = append(e.Rows, Row{
		Label: "gate",
		Extra: map[string]float64{
			"ssb_off_reads2":     offR2("ssbdrill-pass2"),
			"ssb_on_reads2":      onR2("ssbdrill-pass2"),
			"q2_off_reads2":      offR2("q2ni-pass2"),
			"q2_on_reads2":       onR2("q2ni-pass2"),
			"partial_hits":       partial,
			"residual":           residual,
			"binding_hits":       bindHits,
			"binding_admissions": bindAdm,
			"ssb_partial_hits":   float64(ssbStats.BindingPartialHits),
			"q2_partial_hits":    float64(q2Stats.BindingPartialHits),
			"rows_equal":         1, // row equality is enforced in-experiment; reaching here means it held
		},
	})

	e.Notes = append(e.Notes,
		"ssbdrill: parameterized SSB drill-down (day window as Invoke parameters), months 1-6 then 4-9 — 3 window bindings partial-hit, 3 recompute.",
		"q2ni: correlated TPC-D Q2 not-in variant, nested body per p_partkey binding, windows 1-8 then 5-12.",
		"gate row: second-pass reads cache-on vs off per scenario, plus binding-cache counters summed over the two scenarios' stores; each scenario is additionally gated in-experiment to arm its own partial hit with residual recomputes.",
		"rows_equal=1 certifies byte-identical canonicalized rows cache-on vs cache-off for every query of every pass (enforced in-experiment).",
	)
	return e, nil
}

// pkBindings builds Q2's outer-correlation binding sets {"pk": k} for
// k in [lo, hi].
func pkBindings(lo, hi int64) []map[string]algebra.Value {
	var sets []map[string]algebra.Value
	for k := lo; k <= hi; k++ {
		sets = append(sets, map[string]algebra.Value{"pk": algebra.IntVal(k)})
	}
	return sets
}

// Package bench drives the paper's experiments (§6): each function
// regenerates one figure or reported result — estimated plan costs and
// optimization times per algorithm (Figures 6, 8, 9), measured execution
// with and without MQO (Figure 7), the greedy complexity counters
// (Figure 10), the §6.3 optimization ablations, and the §6.4 no-sharing
// overhead, memory- and data-scale sensitivity checks. Experiments lists
// them in order. Wall-clock performance is measured by the benchmark/
// module, not here. cmd/mqopaper and the root bench_test.go are thin
// wrappers over this package.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/psp"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// Cell is one algorithm's outcome for one workload point.
type Cell struct {
	Alg     core.Algorithm
	Cost    float64 // estimated plan cost, seconds
	OptTime time.Duration
	Stats   core.Stats
}

// Row is one workload point (one x-axis position of a figure).
type Row struct {
	Label string
	Cells []Cell
	// Extra carries experiment-specific values (execution times, counters).
	Extra map[string]float64
}

// Experiment is a regenerated figure or table.
type Experiment struct {
	Name  string
	Title string
	Rows  []Row
	Notes []string
}

// Runner is one experiment under the name mqopaper selects it by, which is
// also the Name of the Experiment it returns.
type Runner struct {
	Name string
	Run  func() (*Experiment, error)
}

// Experiments lists the paper's experiments in the order mqopaper runs and
// prints them; the §6.3 ablations run over PSP composites CQ1..CQmaxCQ.
func Experiments(maxCQ int) []Runner {
	return []Runner{
		{"fig6", Figure6},
		{"q2ni", Q2NotIn},
		{"fig7", Figure7},
		{"fig8", Figure8},
		{"fig9", Figure9},
		{"fig10", Figure10},
		{"monotonicity", func() (*Experiment, error) { return AblationMonotonicity(maxCQ) }},
		{"sharability", func() (*Experiment, error) { return AblationSharability(maxCQ) }},
		{"nosharing", NoSharingOverhead},
		{"memory", MemorySensitivity},
		{"scale", ScaleSensitivity},
		{"space", SpaceBudgetCurve},
	}
}

// optimizeAll runs every algorithm on a batch and returns the cells.
func optimizeAll(cat *catalog.Catalog, model cost.Model, queries []*algebra.Tree) ([]Cell, error) {
	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, alg := range core.Algorithms() {
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			return nil, err
		}
		cells = append(cells, Cell{Alg: alg, Cost: res.Cost, OptTime: res.Stats.OptTime, Stats: res.Stats})
	}
	return cells, nil
}

// Figure6 regenerates Figure 6: estimated cost and optimization time of the
// stand-alone TPC-D queries Q2 (correlated), Q2-D (decorrelated), Q11 and
// Q15 under Volcano, Volcano-SH, Volcano-RU and Greedy, at SF 1 statistics
// with clustered PK indices.
func Figure6() (*Experiment, error) {
	cat := tpcd.Catalog(1)
	model := cost.DefaultModel()
	points := []struct {
		label   string
		queries []*algebra.Tree
	}{
		{"Q2", tpcd.Q2(1)},
		{"Q2-D", tpcd.Q2D()},
		{"Q11", []*algebra.Tree{tpcd.Q11()}},
		{"Q15", []*algebra.Tree{tpcd.Q15()}},
	}
	e := &Experiment{Name: "fig6", Title: "Figure 6: Optimization of Stand-alone TPCD Queries (SF 1)"}
	for _, p := range points {
		cells, err := optimizeAll(cat, model, p.queries)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		e.Rows = append(e.Rows, Row{Label: p.label, Cells: cells})
	}
	e.Notes = append(e.Notes,
		"Paper: Q2 126→79 (Greedy), Q2-D 46 with MQO, Q11 ~half cost under all heuristics, Q15 ~half under Greedy.")
	return e, nil
}

// Q2NotIn regenerates the §6.1 text experiment: the Q2 variant with the
// correlation predicate inverted (PS_PARTKEY <> P_PARTKEY), where the paper
// reports 62927 s (Volcano) vs 7331 s (Greedy), a ≈9× improvement.
func Q2NotIn() (*Experiment, error) {
	cat := tpcd.Catalog(1)
	cells, err := optimizeAll(cat, cost.DefaultModel(), tpcd.Q2NI(1))
	if err != nil {
		return nil, err
	}
	e := &Experiment{Name: "q2ni", Title: "§6.1: Q2 with <> correlation predicate (SF 1)"}
	e.Rows = append(e.Rows, Row{Label: "Q2-NI", Cells: cells})
	e.Notes = append(e.Notes, fmt.Sprintf("Improvement Volcano/Greedy = %.1fx (paper: ~8.6x)",
		cells[0].Cost/cells[3].Cost))
	return e, nil
}

// Figure7 regenerates Figure 7's substitute: execute the Figure 6 queries
// with the Volcano plan (No-MQO) and the Greedy plan (MQO) on the built-in
// storage and execution engine, reporting simulated I/O time under the
// paper's cost constants. Data is generated at a small scale factor; the
// reported result is the MQO / No-MQO ratio, as in the paper.
func Figure7() (*Experiment, error) {
	const sf = 0.01
	model := cost.DefaultModel()
	cat := tpcd.Catalog(sf)
	db := storage.NewDB(256) // 1 MB pool: I/O is visible
	if err := tpcd.LoadDB(db, sf, 11); err != nil {
		return nil, err
	}

	paramSets := q2ParamSets(sf)
	points := []struct {
		label   string
		queries []*algebra.Tree
		env     *exec.Env
	}{
		{"Q2", tpcd.Q2(sf), &exec.Env{ParamSets: paramSets}},
		{"Q2-D", tpcd.Q2D(), nil},
		{"Q11", []*algebra.Tree{tpcd.Q11()}, nil},
		{"Q15", []*algebra.Tree{tpcd.Q15()}, nil},
	}
	e := &Experiment{Name: "fig7", Title: fmt.Sprintf("Figure 7: Execution, No-MQO vs MQO (engine, SF %g)", sf)}
	for _, p := range points {
		pd, err := core.BuildDAG(cat, model, p.queries)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		row := Row{Label: p.label, Extra: map[string]float64{}}
		for _, alg := range []core.Algorithm{core.Volcano, core.Greedy} {
			res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
			if err != nil {
				return nil, err
			}
			env := &exec.Env{}
			if p.env != nil {
				env.ParamSets = p.env.ParamSets
			}
			start := time.Now()
			_, stats, err := exec.Run(context.Background(), db, model, res.Plan, env)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", p.label, alg, err)
			}
			wall := time.Since(start)
			key := "NoMQO"
			if alg == core.Greedy {
				key = "MQO"
			}
			row.Extra[key+"_sim_s"] = stats.SimTime
			row.Extra[key+"_wall_ms"] = float64(wall.Milliseconds())
			row.Extra[key+"_reads"] = float64(stats.IO.Reads)
			row.Extra[key+"_writes"] = float64(stats.IO.Writes)
			row.Cells = append(row.Cells, Cell{Alg: alg, Cost: res.Cost, OptTime: res.Stats.OptTime})
		}
		e.Rows = append(e.Rows, row)
	}
	e.Notes = append(e.Notes,
		"Paper (MS SQL Server 6.5, SF 1): Q2 513→415 s, Q2-D 345→262 s, Q11 808→424 s, Q15 63→42 s.",
		"Reported here: simulated I/O time (reads·2ms + writes·4ms + CPU) on the built-in engine; the MQO/No-MQO ratio is the result.")
	return e, nil
}

// q2ParamSets returns per-invocation bindings for Q2's correlated
// parameter: the part keys that pass the outer selection, approximated by
// the first K part keys.
func q2ParamSets(sf float64) []map[string]algebra.Value {
	k := tpcd.Q2Invocations(sf)
	sets := make([]map[string]algebra.Value, 0, k)
	for i := int64(1); i <= k; i++ {
		sets = append(sets, map[string]algebra.Value{"pk": algebra.IntVal(i)})
	}
	return sets
}

// Figure8 regenerates Figure 8: estimated cost and optimization time of the
// batched TPC-D composite queries BQ1..BQ5 (Q3, Q5, Q7, Q9, Q10, each twice
// with different constants), at SF 1.
func Figure8() (*Experiment, error) {
	cat := tpcd.Catalog(1)
	model := cost.DefaultModel()
	e := &Experiment{Name: "fig8", Title: "Figure 8: Optimization of Batched TPCD Queries (SF 1)"}
	for i := 1; i <= 5; i++ {
		cells, err := optimizeAll(cat, model, tpcd.BatchQueries(i))
		if err != nil {
			return nil, fmt.Errorf("BQ%d: %w", i, err)
		}
		e.Rows = append(e.Rows, Row{Label: fmt.Sprintf("BQ%d", i), Cells: cells})
	}
	e.Notes = append(e.Notes,
		"Paper: Volcano-SH/RU up to ~14% below Volcano; Greedy up to 56% below Volcano, uniformly best.")
	return e, nil
}

// Figure9 regenerates Figure 9: estimated cost and optimization time of the
// PSP scaleup composites CQ1..CQ5.
func Figure9() (*Experiment, error) {
	cat := psp.Catalog(1)
	model := cost.DefaultModel()
	e := &Experiment{Name: "fig9", Title: "Figure 9: Optimization of Scaleup Queries (PSP)"}
	for i := 1; i <= 5; i++ {
		cells, err := optimizeAll(cat, model, psp.CQ(i))
		if err != nil {
			return nil, fmt.Errorf("CQ%d: %w", i, err)
		}
		e.Rows = append(e.Rows, Row{Label: fmt.Sprintf("CQ%d", i), Cells: cells})
	}
	e.Notes = append(e.Notes,
		"Paper: Greedy best throughout; Volcano-RU somewhat better than Volcano-SH; Greedy optimization time near-linear (30 s at CQ5 on 1999 hardware).")
	return e, nil
}

// Figure10 regenerates Figure 10: the number of incremental cost
// propagations and cost recomputations performed by Greedy on CQ1..CQ5.
func Figure10() (*Experiment, error) {
	cat := psp.Catalog(1)
	model := cost.DefaultModel()
	e := &Experiment{Name: "fig10", Title: "Figure 10: Complexity of the Greedy Heuristic (PSP)"}
	for i := 1; i <= 5; i++ {
		pd, err := core.BuildDAG(cat, model, psp.CQ(i))
		if err != nil {
			return nil, err
		}
		res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("CQ%d", i),
			Cells: []Cell{{Alg: core.Greedy, Cost: res.Cost, OptTime: res.Stats.OptTime, Stats: res.Stats}},
			Extra: map[string]float64{
				"cost_propagations":   float64(res.Stats.CostPropagations),
				"cost_recomputations": float64(res.Stats.CostRecomputations),
				"benefit_recomps":     float64(res.Stats.BenefitRecomputations),
				"sharable_nodes":      float64(res.Stats.SharableNodes),
				"dag_groups":          float64(res.Stats.DAGGroups),
			},
		})
	}
	e.Notes = append(e.Notes,
		"Paper: both counters grow almost linearly with the number of queries (~150k propagations, ~1.5k recomputations at CQ5).")
	return e, nil
}

// ablation optimizes CQ1..CQmaxCQ with Greedy as configured by default and
// with the ablated options, one row per composite: cells [0] default, [1]
// ablated, Extra whatever counters the ablation compares.
func ablation(e *Experiment, maxCQ int, ablated core.GreedyOptions,
	extra func(with, without core.Stats) map[string]float64) (*Experiment, error) {
	if maxCQ < 1 || maxCQ > 5 {
		return nil, fmt.Errorf("maxCQ %d outside 1-5", maxCQ)
	}
	cat := psp.Catalog(1)
	model := cost.DefaultModel()
	for i := 1; i <= maxCQ; i++ {
		pd, err := core.BuildDAG(cat, model, psp.CQ(i))
		if err != nil {
			return nil, err
		}
		with, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			return nil, err
		}
		without, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{Greedy: ablated})
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("CQ%d", i),
			Cells: []Cell{
				{Alg: core.Greedy, Cost: with.Cost, OptTime: with.Stats.OptTime, Stats: with.Stats},
				{Alg: core.Greedy, Cost: without.Cost, OptTime: without.Stats.OptTime, Stats: without.Stats},
			},
			Extra: extra(with.Stats, without.Stats),
		})
	}
	return e, nil
}

// AblationMonotonicity regenerates the §6.3 monotonicity experiment:
// benefit recomputations and optimization time with and without the
// monotonicity heuristic on CQ1..CQmaxCQ, maxCQ in 1..5 (the paper reports
// ~45 vs ~1558 recomputations per materialization at CQ2, 7 s vs 77 s).
func AblationMonotonicity(maxCQ int) (*Experiment, error) {
	e := &Experiment{Name: "monotonicity", Title: "§6.3: Monotonicity heuristic ablation (PSP)"}
	e.Notes = append(e.Notes,
		"Cells: [0] with monotonicity, [1] without (every benefit recomputed every round). Measured: benefit recomputations and optimization time.",
		"Plan costs are equal on CQ1-2; from CQ3 on the exhaustive loop finds a set up to 0.31% cheaper (CQ3 750.0 vs 748.0; the paper found identical plans).")
	return ablation(e, maxCQ, core.GreedyOptions{DisableMonotonicity: true},
		func(with, without core.Stats) map[string]float64 {
			return map[string]float64{
				"with_benefit_recomps":    float64(with.BenefitRecomputations),
				"without_benefit_recomps": float64(without.BenefitRecomputations),
			}
		})
}

// AblationSharability regenerates the §6.3 sharability experiment:
// optimization time with the sharability filter on and off, on
// CQ1..CQmaxCQ, maxCQ in 1..5.
func AblationSharability(maxCQ int) (*Experiment, error) {
	e := &Experiment{Name: "sharability", Title: "§6.3: Sharability computation ablation (PSP)"}
	e.Notes = append(e.Notes, "Cells: [0] with sharability filter, [1] all nodes candidates.")
	return ablation(e, maxCQ, core.GreedyOptions{DisableSharability: true},
		func(with, without core.Stats) map[string]float64 {
			return map[string]float64{
				"with_candidates":    float64(with.Candidates),
				"without_candidates": float64(without.Candidates),
			}
		})
}

// NoSharingOverhead regenerates the §6.4 overhead experiment: the BQ5 batch
// with relations renamed apart so no sharing exists. As in the paper, the
// baseline is plain Volcano optimization of each query separately (no
// shared DAG), and the overhead is Greedy's end-to-end time — combined DAG
// construction, sharability analysis, and the (immediately terminating)
// greedy loop — over that baseline (paper: ~25%).
func NoSharingOverhead() (*Experiment, error) {
	cat := tpcd.RenamedCatalog(1, 5)
	model := cost.DefaultModel()
	queries := tpcd.RenamedBatch(5)

	// Baseline: per-query Volcano, each with its own DAG.
	volStart := time.Now()
	var volCost float64
	for _, q := range queries {
		pd, err := core.BuildDAG(cat, model, []*algebra.Tree{q})
		if err != nil {
			return nil, err
		}
		res, err := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
		if err != nil {
			return nil, err
		}
		volCost += res.Cost
	}
	volTime := time.Since(volStart)

	// Greedy: combined DAG over the whole (non-overlapping) batch.
	gStart := time.Now()
	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		return nil, err
	}
	gres, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		return nil, err
	}
	gTime := time.Since(gStart)

	e := &Experiment{Name: "nosharing", Title: "§6.4: Overhead on a batch with no sharing (renamed BQ5)"}
	e.Rows = append(e.Rows, Row{
		Label: "BQ5-renamed",
		Cells: []Cell{
			{Alg: core.Volcano, Cost: volCost, OptTime: volTime},
			{Alg: core.Greedy, Cost: gres.Cost, OptTime: gTime, Stats: gres.Stats},
		},
		Extra: map[string]float64{
			"overhead_pct":   100 * (float64(gTime)/float64(volTime) - 1),
			"materialized":   float64(len(gres.Materialized)),
			"sharable_nodes": float64(gres.Stats.SharableNodes),
		},
	})
	e.Notes = append(e.Notes,
		"Costs must match (Greedy returns the Volcano plan); sharability finds no sharable node, so the greedy loop exits immediately (paper overhead: ~25%).")
	return e, nil
}

// MemorySensitivity regenerates the §6.4 memory check: the relative gain of
// Greedy over Volcano on BQ3 with 6 MB, 32 MB and 128 MB per operator.
func MemorySensitivity() (*Experiment, error) {
	cat := tpcd.Catalog(1)
	e := &Experiment{Name: "memory", Title: "§6.4: Memory sensitivity (BQ3, SF 1)"}
	for _, mb := range []int64{6, 32, 128} {
		model := cost.DefaultModel()
		model.MemoryBytes = mb << 20
		cells, err := optimizeAll(cat, model, tpcd.BatchQueries(3))
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("%dMB", mb),
			Cells: cells,
			Extra: map[string]float64{"greedy_over_volcano": cells[3].Cost / cells[0].Cost},
		})
	}
	e.Notes = append(e.Notes, "Paper: absolute costs drop slightly with memory; relative gains essentially unchanged.")
	return e, nil
}

// ScaleSensitivity regenerates the §6.4 data-scale check: BQ5 at SF 1 vs
// SF 100 statistics; the absolute benefit grows with scale while the
// optimization time is scale-independent (paper: 33754 s saved at SF 100
// for 10 s of optimization).
func ScaleSensitivity() (*Experiment, error) {
	e := &Experiment{Name: "scale", Title: "§6.4: Data-scale sensitivity (BQ5)"}
	for _, sf := range []float64{1, 100} {
		cells, err := optimizeAll(tpcd.Catalog(sf), cost.DefaultModel(), tpcd.BatchQueries(5))
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("SF%g", sf),
			Cells: cells,
			Extra: map[string]float64{"benefit_s": cells[0].Cost - cells[3].Cost},
		})
	}
	return e, nil
}

// SpaceBudgetCurve is an ablation for the §8 space-constrained greedy
// extension: plan cost of BQ5 as the temporary-storage budget grows from
// nothing to unconstrained, showing the benefit/space trade-off curve.
func SpaceBudgetCurve() (*Experiment, error) {
	cat := tpcd.Catalog(1)
	model := cost.DefaultModel()
	queries := tpcd.BatchQueries(5)
	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		return nil, err
	}
	volcano, err := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	if err != nil {
		return nil, err
	}
	full, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		return nil, err
	}
	var fullSize int64
	for _, m := range full.Materialized {
		fullSize += int64(m.LG.Rel.Blocks(model)) * model.BlockSize
	}
	e := &Experiment{Name: "space", Title: "§8 extension: space-budgeted greedy on BQ5 (SF 1)"}
	e.Rows = append(e.Rows, Row{Label: "no-mqo", Cells: []Cell{{Alg: core.Volcano, Cost: volcano.Cost}}})
	for _, frac := range []float64{0.05, 0.25, 0.5, 1, 2} {
		budget := int64(float64(fullSize) * frac)
		if budget < 1 {
			budget = 1
		}
		res, err := core.Optimize(context.Background(), pd, core.Greedy,
			core.Options{Greedy: core.GreedyOptions{SpaceBudgetBytes: budget}})
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("budget %.0f%%", frac*100),
			Cells: []Cell{{Alg: core.Greedy, Cost: res.Cost, OptTime: res.Stats.OptTime}},
			Extra: map[string]float64{"budget_mb": float64(budget) / (1 << 20), "materialized": float64(len(res.Materialized))},
		})
	}
	e.Rows = append(e.Rows, Row{Label: "unbounded", Cells: []Cell{{Alg: core.Greedy, Cost: full.Cost}}})
	e.Notes = append(e.Notes, "Cost must fall monotonically as the budget grows, from the Volcano cost to the unconstrained Greedy cost.")
	return e, nil
}

// String renders the experiment as an aligned text table.
func (e *Experiment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", e.Title)
	// Header.
	fmt.Fprintf(&b, "%-14s", "")
	if len(e.Rows) > 0 {
		for _, c := range e.Rows[0].Cells {
			fmt.Fprintf(&b, "%22s", c.Alg.String())
		}
	}
	b.WriteByte('\n')
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%14.1fs/%6.0fms", c.Cost, float64(c.OptTime.Microseconds())/1000)
		}
		b.WriteByte('\n')
		if len(r.Extra) > 0 {
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "    ")
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%.2f", k, r.Extra[k])
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

package main

import (
	"context"
	"strings"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/exec"
	"mqo/internal/physical"
	"mqo/internal/sql"
	"mqo/internal/storage"
)

// stepper takes a batch through the steps Optimizer.Run takes, calling each
// layer's public functions itself so that a span can be recorded around
// each call. Span names are the per-layer metric names; counts read from
// the structs those calls return are summed into sums under metric names
// too. db is nil for optimization only, rc is nil without a result cache.
type stepper struct {
	cat   *catalog.Catalog
	model cost.Model
	db    *storage.DB
	rc    *cache.Manager
	tr    *tracer
	sums  map[string]float64
}

type stepOut struct {
	res     *core.Result
	queries []exec.QueryResult
	stats   exec.RunStats
}

var searchSpan = map[core.Algorithm]string{
	core.Volcano:   "core.search_volcano_s",
	core.VolcanoSH: "core.search_sh_s",
	core.VolcanoRU: "core.search_ru_s",
	core.Greedy:    "core.search_greedy_s",
}

// run steps one batch, given as SQL text or, when sqlText is empty, as
// algebra queries.
func (s *stepper) run(ctx context.Context, sqlText string, queries []*algebra.Tree,
	alg core.Algorithm, paramSets []map[string]algebra.Value) (*stepOut, error) {

	batch := s.tr.newBatch()
	root := s.tr.start("batch", glueLayer, -1, batch)
	defer s.tr.end(root)
	step := func(name, layer string, f func() error) error {
		id := s.tr.start(name, layer, root, batch)
		defer s.tr.end(id)
		return f()
	}

	if sqlText != "" {
		if err := step("sql.parse_lower_s", layerSQL, func() (err error) {
			queries, err = sql.ParseBatch(s.cat, sqlText)
			return err
		}); err != nil {
			return nil, err
		}
		s.sums["sql.queries"] += float64(len(queries))
	}
	var ld *dag.DAG
	if err := step("dag.insert_s", layerDAG, func() error {
		ld = dag.New(cost.Estimator{Cat: s.cat})
		for _, q := range queries {
			if _, err := ld.AddQuery(q); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := step("dag.expand_s", layerDAG, func() error {
		if err := ld.Expand(); err != nil {
			return err
		}
		if err := ld.Subsume(); err != nil {
			return err
		}
		if err := ld.Expand(); err != nil {
			return err
		}
		_, err := ld.Finalize()
		return err
	}); err != nil {
		return nil, err
	}
	var pd *physical.DAG
	if err := step("physical.build_s", layerPhysical, func() (err error) {
		pd, err = physical.Build(ld, s.model)
		return err
	}); err != nil {
		return nil, err
	}
	var ticket *cache.Ticket
	if s.rc != nil {
		_ = step("cache.arm_s", layerCache, func() error {
			ticket = s.rc.Arm(pd, paramSets)
			return nil
		})
	}
	out := &stepOut{}
	if err := step(searchSpan[alg], layerCore, func() (err error) {
		out.res, err = core.Optimize(ctx, pd, alg, core.Options{})
		return err
	}); err != nil {
		if ticket != nil {
			ticket.Abort()
		}
		return nil, err
	}
	st := out.res.Stats
	s.sums["dag.groups"] += float64(st.DAGGroups)
	s.sums["dag.exprs"] += float64(st.DAGExprs)
	s.sums["physical.nodes"] += float64(st.PhysNodes)
	s.sums["core.benefit_recomps"] += float64(st.BenefitRecomputations)
	s.sums["core.cost_propagations"] += float64(st.CostPropagations)
	s.sums["core.eval_waves"] += float64(st.EvalWaves)
	s.sums["core.materialized"] += float64(len(out.res.Materialized))
	s.sums["core.sharability_s"] += st.Phases[core.OptPhaseSharability].Seconds()
	s.sums["core.waves_s"] += st.Phases[core.OptPhaseWaves].Seconds()
	if s.db == nil {
		return out, nil
	}

	env := &exec.Env{ParamSets: paramSets, Profile: true}
	if ticket != nil {
		_ = step("cache.planspools_s", layerCache, func() error {
			env.Cache = &exec.CacheIO{Spools: ticket.PlanSpools(out.res.Plan), BindSpools: ticket.BindingSpools()}
			return nil
		})
	}
	if err := step("exec.run_s", layerExec, func() (err error) {
		out.queries, out.stats, err = exec.Run(ctx, s.db, s.model, out.res.Plan, env)
		return err
	}); err != nil {
		if ticket != nil {
			ticket.Abort()
		}
		return nil, err
	}
	if ticket != nil {
		_ = step("cache.commit_s", layerCache, func() error {
			ticket.Commit()
			return nil
		})
	}
	addRunStats(s.sums, out.stats)
	return out, nil
}

// addRunStats folds one execution's I/O counts and, when it was profiled,
// its operators' self times into sums. Time exec.Run spent outside its
// iterators — writing materialized and spooled rows, flushing the pool —
// is what remains of the run's wall time once the operator trees are taken
// out.
func addRunStats(sums map[string]float64, st exec.RunStats) {
	sums["exec.rows_out"] += float64(st.RowsOut)
	sums["exec.sim_time_s"] += st.SimTime
	sums["storage.pool_reads"] += float64(st.IO.Reads)
	sums["storage.pool_writes"] += float64(st.IO.Writes)
	sums["storage.warm_reads"] += float64(st.WarmIO.Reads)
	sums["storage.warm_writes"] += float64(st.WarmIO.Writes)
	if st.Profile == nil {
		return
	}
	var inTrees time.Duration
	var walk func(p *exec.NodeProfile)
	walk = func(p *exec.NodeProfile) {
		self := p.Wall
		for _, c := range p.Children {
			self -= c.Wall
			walk(c)
		}
		bucket, base := operatorBucket(p.Op)
		sums[bucket] += self.Seconds()
		if base {
			sums[baseRowsKey] += float64(p.Rows)
		}
	}
	for _, roots := range [][]*exec.NodeProfile{st.Profile.Mats, st.Profile.Queries} {
		for _, p := range roots {
			inTrees += p.Wall
			walk(p)
		}
	}
	sums["exec.mat_write_s"] += (st.Wall - inTrees).Seconds()
}

// baseRowsKey sums rows read from base tables; it is not a metric itself
// but the numerator of exec.base_rows_per_s.
const baseRowsKey = "_base_rows"

// operatorBucket maps a profiled operator to the metric its self time
// belongs to, and reports whether it reads a base table.
func operatorBucket(op string) (metric string, baseScan bool) {
	if i := strings.IndexByte(op, '('); i >= 0 {
		op = op[:i]
	}
	switch op {
	case "SeqScan", "BaseIndex", "IndexSelect":
		return "exec.scan_s", true
	case "CacheScan", "TempScan":
		return "exec.scan_s", false
	case "Filter":
		return "exec.filter_s", false
	case "BNLJoin", "MergeJoin", "IndexJoin":
		return "exec.join_s", false
	case "SortAgg", "ScalarAgg":
		return "exec.agg_s", false
	case "Sort", "IndexBuild":
		return "exec.sort_s", false
	}
	return "exec.other_s", false
}

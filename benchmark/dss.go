package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mqo"
	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/ssb"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// batchItem is one batch a workload submits: SQL text or algebra queries,
// bindings when parameterized, and the oracle key of each of its queries.
type batchItem struct {
	sql       string
	queries   []*mqo.Query
	paramSets []map[string]mqo.Value
	keys      []string
}

// runItem submits one batch — through the public session API, or stepwise
// through st when tracing — checks every answer against the oracle and
// logs the operation. It returns the latency, the execution's stats and the
// plan that ran.
func (e *runEnv) runItem(ctx context.Context, opt *mqo.Optimizer, st *stepper, it batchItem, log *opLog) (time.Duration, mqo.RunStats, *mqo.Plan) {
	var (
		answers []mqo.QueryResult
		stats   mqo.RunStats
		plan    *mqo.Plan
	)
	d, alloc, err := timedOp(ctx, func(ctx context.Context) error {
		if st != nil {
			out, err := st.run(ctx, it.sql, it.queries, core.Greedy, it.paramSets)
			if err == nil {
				answers, stats, plan = out.queries, out.stats, out.res.Plan
			}
			return err
		}
		res, err := opt.Run(ctx, mqo.Batch{SQL: it.sql, Queries: it.queries,
			Algorithm: mqo.Greedy, ParamSets: it.paramSets})
		if err == nil {
			answers, stats, plan = res.Queries, res.Exec, res.Plan
		}
		return err
	})
	ok := err == nil && len(answers) == len(it.keys)
	if ok {
		for i, key := range it.keys {
			ok = e.orc.check(key, answers[i]) && ok
		}
	}
	log.allocated += alloc
	log.record(d, ok, opTimeout)
	return d, stats, plan
}

// ssbFlights returns the four SSB flights as SQL batches with their oracle
// items.
func ssbFlights() ([]batchItem, []oracleItem) {
	var (
		items []batchItem
		orc   []oracleItem
	)
	for f := 1; f <= ssb.NumFlights; f++ {
		it := batchItem{sql: ssb.FlightSQL(f)}
		for i, q := range ssb.Flight(f) {
			key := fmt.Sprintf("ssb/Q%d.%d", f, i+1)
			it.keys = append(it.keys, key)
			orc = append(orc, oracleQuery(key, q))
		}
		items = append(items, it)
	}
	return items, orc
}

// costRatios optimizes a batch under all four algorithms on a session
// without caches and returns each heuristic's estimated cost over
// Volcano's.
func costRatios(ctx context.Context, cat *mqo.Catalog, queries []*mqo.Query) ([]float64, error) {
	opt, err := mqo.Open(cat)
	if err != nil {
		return nil, err
	}
	var volcano float64
	var out []float64
	for _, alg := range mqo.Algorithms() {
		res, err := opt.OptimizeBatch(ctx, queries, alg)
		if err != nil {
			return nil, err
		}
		if alg == mqo.Volcano {
			volcano = float64(res.Cost)
			continue
		}
		out = append(out, float64(res.Cost)/volcano)
	}
	return out, nil
}

func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ssbCostRatio is plan_cost_ratio over the four SSB flights.
func ssbCostRatio(ctx context.Context, sf float64) ([]float64, error) {
	var ratios []float64
	for f := 1; f <= ssb.NumFlights; f++ {
		r, err := costRatios(ctx, ssb.Catalog(sf), ssb.Flight(f))
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, r...)
	}
	return ratios, nil
}

// storageProbes times the storage layer directly on a database of its own:
// loading, a full heap scan of the fact table, and B-tree point probes.
func storageProbes(m *measure, sf float64, poolPages int) error {
	db := mqo.NewDB(poolPages)
	start := time.Now()
	if err := ssb.LoadDB(db, sf, dataSeed); err != nil {
		return err
	}
	m.set("storage.load_s", time.Since(start).Seconds(), 1)
	fact, err := db.Table("lineorder")
	if err != nil {
		return err
	}
	var scans []float64
	for i := 0; i < 3; i++ {
		start = time.Now()
		if err := fact.Heap.Scan(func(storage.RID, storage.Row) error { return nil }); err != nil {
			return err
		}
		scans = append(scans, time.Since(start).Seconds())
	}
	m.set("storage.heap_scan_s", median(scans), len(scans))
	bt, err := db.EnsureIndex(fact, "lodate")
	if err != nil {
		return err
	}
	keys := ssb.DateKeys()
	var probes []float64
	for round := 0; round < 5; round++ {
		start = time.Now()
		for _, k := range keys {
			it, err := bt.Seek(algebra.IntVal(k))
			if err != nil {
				return err
			}
			if _, _, _, err := it.Next(); err != nil {
				return err
			}
		}
		probes = append(probes, float64(time.Since(start).Microseconds())/float64(len(keys)))
	}
	m.set("storage.btree_probe_us", median(probes), len(probes)*len(keys))
	return nil
}

// dssSession is one loaded database with the session and, when tracing,
// the stepper that run batches on it.
type dssSession struct {
	db   *mqo.DB
	opt  *mqo.Optimizer
	step *stepper
}

func openDSS(cat *mqo.Catalog, pool int, load func(*mqo.DB) error) (*dssSession, error) {
	db := mqo.NewDB(pool)
	if err := load(db); err != nil {
		return nil, err
	}
	opt, err := mqo.Open(cat, mqo.WithDB(db))
	return &dssSession{db: db, opt: opt}, err
}

// runDSS is dss_batch_cold: the four SSB flights and TPC-D BQ5, each one
// batch through Optimizer.Run under Greedy with every cache off, over
// tables several times the buffer pool.
func runDSS(ctx context.Context, e *runEnv, m *measure) (*opLog, error) {
	sc := e.sc
	type loaded struct{ ssb, tpcd *dssSession }
	ld, setupS, err := medianSetup(sc.setupReps, func() (loaded, error) {
		s, err := openDSS(ssb.Catalog(sc.dssSSBSF), sc.dssSSBPool, func(db *mqo.DB) error {
			return ssb.LoadDB(db, sc.dssSSBSF, dataSeed)
		})
		if err != nil {
			return loaded{}, err
		}
		t, err := openDSS(tpcd.Catalog(sc.dssTPCDSF), sc.dssTPCDPool, func(db *mqo.DB) error {
			return tpcd.LoadDB(db, sc.dssTPCDSF, dataSeed)
		})
		return loaded{s, t}, err
	}, nil)
	if err != nil {
		return nil, err
	}

	flights, orcItems := ssbFlights()
	if err := e.orc.add(ld.ssb.db, orcItems); err != nil {
		return nil, err
	}
	bq5 := batchItem{queries: tpcd.BatchQueries(5)}
	var bqItems []oracleItem
	for i, q := range bq5.queries {
		key := fmt.Sprintf("tpcd/BQ5.%d", i+1)
		bq5.keys = append(bq5.keys, key)
		bqItems = append(bqItems, oracleQuery(key, q))
	}
	if err := e.orc.add(ld.tpcd.db, bqItems); err != nil {
		return nil, err
	}

	ratios, err := ssbCostRatio(ctx, sc.dssSSBSF)
	if err != nil {
		return nil, err
	}
	r, err := costRatios(ctx, tpcd.Catalog(sc.dssTPCDSF), bq5.queries)
	if err != nil {
		return nil, err
	}
	ratios = append(ratios, r...)
	m.set("plan_cost_ratio", geomean(ratios), len(ratios))

	sums := map[string]float64{}
	if e.trace {
		for _, s := range []*dssSession{ld.ssb, ld.tpcd} {
			s.step = &stepper{cat: s.opt.Catalog(), model: s.opt.Model(), db: s.db, tr: e.tr, sums: sums}
		}
	}
	pass := func(traced bool, log *opLog) {
		e.calibrate()
		run := func(s *dssSession, it batchItem) {
			st := s.step
			if !traced {
				st = nil
			}
			e.runItem(ctx, s.opt, st, it, log)
		}
		for _, bi := range e.in.DSSOrder {
			if bi < len(flights) {
				run(ld.ssb, flights[bi])
			} else {
				run(ld.tpcd, bq5)
			}
		}
		log.endPass()
	}

	log, tlog := e.measurePasses(m, setupS, 0, pass)
	if !e.trace {
		return log, nil
	}
	setTraceMetrics(m, e.tr, sums, tlog, log)
	return log, storageProbes(m, sc.dssSSBSF, sc.dssSSBPool)
}

// setTraceMetrics sets what every traced pipeline run reports: the spans'
// self times and the summed counts per pass, the rates derived from them,
// and how much of the traced time the spans cover and cost.
func setTraceMetrics(m *measure, tr *tracer, sums map[string]float64, traced, plain *opLog) {
	passes := traced.passes
	byName, _ := tr.selfSeconds()
	for name, s := range byName {
		if name != "batch" {
			sums[name] += s
		}
	}
	m.setPerPass(sums, passes)
	if run := sums["exec.run_s"]; run > 0 {
		m.set("exec.base_rows_per_s", sums[baseRowsKey]/run, passes)
		if sim := sums["exec.sim_time_s"]; sim > 0 {
			m.set("exec.wall_over_sim", run/sim, passes)
		}
	}
	m.set("trace.coverage", tr.coverage(), passes)
	m.set("trace.overhead_frac", traced.bestPassS()/plain.bestPassS()-1, passes)
}

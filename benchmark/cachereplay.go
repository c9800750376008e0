package main

import (
	"context"
	"fmt"

	"mqo"
	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/sql"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// replayPasses builds the two passes of cache_replay_tight and their oracle
// items: the four flights, the drill-down steps of flights 1 and 4 one
// query at a time, and flight 1's parameterized drill-down, bound to months
// A in pass 1 and to the overlapping months B in pass 2.
func replayPasses(in Inputs) (pass1, pass2 []batchItem, orc []oracleItem) {
	seq, orc := ssbFlights()
	for _, f := range []int{1, 4} {
		texts := ssb.DrillDownSQL(f, ssb.MaxDrillSteps)
		for k, step := range ssb.DrillDown(f, ssb.MaxDrillSteps) {
			key := fmt.Sprintf("ssb/D%d.%d", f, k+1)
			seq = append(seq, batchItem{sql: texts[k], keys: []string{key}})
			orc = append(orc, oracleQuery(key, step[0]))
		}
	}
	// The reference evaluator would join all of lineorder with all of date
	// once per binding of ssb.DrillParam, whose selections sit above its
	// join. The oracle evaluates the same window per binding as plain SQL
	// instead, which lowers with the selections below the join.
	param := func(name string, months []int64) batchItem {
		it := batchItem{queries: ssb.DrillParam(int64(len(months))),
			paramSets: ssb.DrillParamBindings(months...), keys: []string{"ssb/drillparam/" + name}}
		want := oracleItem{key: it.keys[0], schema: algebra.Schema{
			{Col: algebra.Col("drill", "revenue"), Typ: algebra.TFloat}}}
		for _, set := range it.paramSets {
			q, err := sql.Parse(ssb.Catalog(1), fmt.Sprintf(`SELECT SUM(loprice*lodisc) AS revenue
				FROM lineorder, date
				WHERE lodate = dk AND dyear = 1993 AND lodisc >= 1 AND lodisc <= 3
				  AND dk >= %d AND dk <= %d`, set["dlo"].I, set["dhi"].I))
			if err != nil {
				panic(err) // static text
			}
			want.parts = append(want.parts, q)
		}
		orc = append(orc, want)
		return it
	}
	pass1 = append(append(pass1, seq...), param("A", in.BindingsA))
	pass2 = append(append(pass2, seq...), param("B", in.BindingsB))
	return pass1, pass2, orc
}

// replaySession is one fresh database and result cache. Plain repetitions
// go through a session opened with the result and plan caches; traced ones
// through a stepper over a store of the same budgets.
type replaySession struct {
	db    *mqo.DB
	opt   *mqo.Optimizer
	store *cache.Manager
	step  *stepper
}

func (s *replaySession) close() {
	if s.opt != nil {
		s.opt.Close() // closes the session's store with it
	} else {
		s.store.Close()
	}
}

// replayStats is what one repetition ended with.
type replayStats struct {
	hotBaseReads int64
	cache        mqo.ResultCacheStats
	plans        mqo.CacheStats
	warmBytes    int64
	warmIO       storage.IOStats
}

// runCacheReplay is cache_replay_tight: one sequential client replays the
// same sequence twice on a fresh session whose result cache is smaller
// than what the sequence spools, backed by a warm tier on disk. Pass 1 is
// the cache's write path, pass 2 its read path.
func runCacheReplay(ctx context.Context, e *runEnv, m *measure) (*opLog, error) {
	sc := e.sc
	cat := ssb.Catalog(sc.cacheSF)
	pass1, pass2, orcItems := replayPasses(e.in)
	sums := map[string]float64{}

	open := func(traced bool) (*replaySession, error) {
		s := &replaySession{db: mqo.NewDB(sc.cachePool)}
		if err := ssb.LoadDB(s.db, sc.cacheSF, dataSeed); err != nil {
			return nil, err
		}
		if traced {
			model := mqo.DefaultModel()
			s.store = cache.NewStoreTiered(s.db, model, sc.cacheRAM, sc.cacheWarm, 1)
			s.step = &stepper{cat: cat, model: model, db: s.db, rc: s.store, tr: e.tr, sums: sums}
		} else {
			opt, err := mqo.Open(cat, mqo.WithDB(s.db),
				mqo.WithResultCache(sc.cacheRAM, sc.cacheWarm), mqo.WithPlanCache(64))
			if err != nil {
				return nil, err
			}
			s.opt, s.store = opt, opt.ResultCache()
		}
		return s, nil
	}

	replay := func(s *replaySession, log *opLog) replayStats {
		e.calibrate()
		var rs replayStats
		var hotPlans []*mqo.Plan
		for pi, pass := range [][]batchItem{pass1, pass2} {
			for _, it := range pass {
				_, stats, plan := e.runItem(ctx, s.opt, s.step, it, log)
				// Promotion is background work; waiting for it between
				// batches makes every repetition see the same cache state.
				s.store.WaitPromotions()
				if pi == 1 {
					rs.hotBaseReads += stats.IO.Reads
					if plan != nil {
						hotPlans = append(hotPlans, plan)
					}
				}
			}
		}
		if s.step != nil {
			// A plan-cache hit pins its plan's cache tables in place of
			// arming and optimizing. The session's plan cache cannot be
			// stepped from outside, so the pin is timed on its own, on the
			// plans pass 2 ran.
			id := e.tr.start("cache.pinplan_s", layerCache, -1, e.tr.newBatch())
			for _, plan := range hotPlans {
				if ticket, ok := s.store.PinPlan(plan); ok {
					ticket.Abort()
				}
			}
			e.tr.end(id)
		}
		rs.cache = s.store.Stats()
		if s.opt != nil {
			rs.plans = s.opt.CacheStats()
		}
		rs.warmBytes, rs.warmIO = s.db.WarmUsedBytes(), s.db.WarmIO()
		return rs
	}

	first, setupS, err := medianSetup(sc.setupReps,
		func() (*replaySession, error) { return open(false) }, (*replaySession).close)
	if err != nil {
		return nil, err
	}
	err = e.orc.add(first.db, orcItems)
	first.close()
	if err != nil {
		return nil, err
	}
	ratios, err := ssbCostRatio(ctx, sc.cacheSF)
	if err != nil {
		return nil, err
	}
	m.set("plan_cost_ratio", geomean(ratios), len(ratios))

	// A pass is one repetition on a fresh session; p50_ms is the read
	// path's, over pass 2's batches.
	var last replayStats
	log, tlog := e.measurePasses(m, setupS, len(pass1), func(traced bool, log *opLog) {
		s, err := open(traced)
		if err != nil {
			log.attempted++
			log.failed++
			return
		}
		rs := replay(s, log)
		s.close()
		log.endPass()
		if !traced {
			last = rs
		}
	})
	if !e.trace {
		return log, nil
	}

	setTraceMetrics(m, e.tr, sums, tlog, log)
	var cold, hot float64
	for i, ms := range log.best {
		if i < log.p50From {
			cold += ms / 1e3
		} else {
			hot += ms / 1e3
		}
	}
	m.set("cache.cold_pass_s", cold, log.passes)
	m.set("cache.hot_pass_s", hot, log.passes)
	setCacheCounters(m, last.cache, last.plans)
	m.set("cache.base_reads_hot", float64(last.hotBaseReads), 1)
	// Demotions write and promotions read the warm tier outside exec.Run,
	// so the database's own totals replace the per-run sums.
	m.set("storage.warm_bytes", float64(last.warmBytes), 1)
	m.set("storage.warm_reads", float64(last.warmIO.Reads), 1)
	m.set("storage.warm_writes", float64(last.warmIO.Writes), 1)
	return log, storageProbes(m, sc.cacheSF, sc.cachePool)
}

// setCacheCounters sets the result cache's and the plan cache's counts as
// one session ended with them.
func setCacheCounters(m *measure, c mqo.ResultCacheStats, p mqo.CacheStats) {
	for name, v := range map[string]int64{
		"cache.hits": c.Hits, "cache.warm_hits": c.WarmHits,
		"cache.admissions": c.Admissions, "cache.evictions": c.Evictions,
		"cache.demotions": c.Demotions, "cache.promotions": c.Promotions,
		"cache.binding_hits": c.BindingHits, "cache.binding_partial_hits": c.BindingPartialHits,
		"cache.binding_residual": c.BindingResidual,
		"cache.used_bytes":       c.UsedBytes, "cache.warm_used_bytes": c.WarmUsedBytes,
		"plancache.hits": p.Hits,
	} {
		m.set(name, float64(v), 1)
	}
	m.set("cache.hit_rate", c.HitRate(), int(c.Batches))
	if total := p.Hits + p.Misses; total > 0 {
		m.set("plancache.hit_rate", float64(p.Hits)/float64(total), int(total))
	}
}

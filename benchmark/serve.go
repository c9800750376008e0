package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mqo"
	"mqo/internal/ssb"
)

// request is one submission to the service and what came back.
type request struct {
	query           int
	due, sent, done time.Time
	refused         bool // too many already in flight
	ans             *mqo.Answer
	err             error
}

// service is the micro-batching service over a loaded database.
type service struct {
	db  *mqo.DB
	opt *mqo.Optimizer
	svc *mqo.Service
}

func openService(sc scale) (*service, error) {
	db := mqo.NewDB(sc.servePool)
	if err := ssb.LoadDB(db, sc.serveSF, dataSeed); err != nil {
		return nil, err
	}
	opt, err := mqo.Open(ssb.Catalog(sc.serveSF), mqo.WithDB(db), mqo.WithPlanCache(64))
	if err != nil {
		return nil, err
	}
	svc, err := mqo.Serve(opt, mqo.BatchingOptions{Workers: 2, MaxBatch: 8,
		MaxWait: 2 * time.Millisecond, ResultCacheBytes: sc.serveRAM})
	return &service{db: db, opt: opt, svc: svc}, err
}

func (s *service) close() {
	if s != nil && s.svc != nil {
		s.svc.Close()
		s.opt.Close()
	}
}

func (s *service) submit(ctx context.Context, text string, r *request) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	r.ans, r.err = s.svc.Submit(ctx, text)
	r.done = time.Now()
}

// openLoop sends one segment's requests when they are due, whatever the
// service is doing: one dispatcher sleeps until each due time and hands the
// request to a goroutine that waits for the answer. A request due while
// the limit of outstanding requests is reached is refused.
func (s *service) openLoop(ctx context.Context, pool []string, seg OpenSegment, maxOutstanding int) []request {
	reqs := make([]request, len(seg.Arrivals))
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
	)
	start := time.Now()
	for i, a := range seg.Arrivals {
		r := &reqs[i]
		r.query, r.due = a.Query, start.Add(time.Duration(a.AtNs))
		time.Sleep(time.Until(r.due))
		r.sent = time.Now()
		if outstanding.Load() >= int64(maxOutstanding) {
			r.refused, r.done = true, r.sent
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			s.submit(ctx, pool[r.query], r)
		}()
	}
	wg.Wait()
	return reqs
}

// closedLoop replays draws with a fixed number of clients, each sending its
// next request when the previous one is answered.
func (s *service) closedLoop(ctx context.Context, pool []string, draws []int, clients int) ([]request, time.Duration) {
	reqs := make([]request, len(draws))
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(draws) {
					return
				}
				r := &reqs[i]
				r.query, r.sent = draws[i], time.Now()
				r.due = r.sent
				s.submit(ctx, pool[r.query], r)
			}
		}()
	}
	wg.Wait()
	return reqs, time.Since(start)
}

// verify checks every answer of a finished phase against the oracle and
// logs the requests, timing each from when it was due.
func (e *runEnv) verify(reqs []request, log *opLog) {
	for i := range reqs {
		r := &reqs[i]
		ok := !r.refused && r.err == nil && e.orc.check(e.in.Pool[r.query], r.ans.Query)
		log.record(r.done.Sub(r.due), ok, sloLimit)
	}
}

// runServe is serve_zipf_hot: the micro-batching service with a result
// cache that holds every result, driven with SQL text drawn Zipf(1.1) from
// a pool — open loop at fixed rates, then a closed loop of parked clients.
// In-process on purpose: over HTTP a connection cap would bound the
// requests in flight and hide the batcher.
func runServe(ctx context.Context, e *runEnv, m *measure) (*opLog, error) {
	sc := e.sc
	s, setupS, err := medianSetup(sc.setupReps,
		func() (*service, error) { return openService(sc) }, (*service).close)
	defer s.close()
	if err != nil {
		return nil, err
	}

	var orcItems []oracleItem
	for _, text := range e.in.Pool {
		qs, err := s.opt.ParseSQL(text)
		if err != nil || len(qs) != 1 {
			return nil, fmt.Errorf("pool text does not parse to one query: %v\n%s", err, text)
		}
		orcItems = append(orcItems, oracleQuery(text, qs[0]))
	}
	if err := e.orc.add(s.db, orcItems); err != nil {
		return nil, err
	}
	ratios, err := ssbCostRatio(ctx, sc.serveSF)
	if err != nil {
		return nil, err
	}
	m.set("plan_cost_ratio", geomean(ratios), len(ratios))

	// Filling the cache is set-up. Every text is first submitted twice on
	// its own, so its result is spooled and then read. Coalesced windows
	// still admit shared intermediates of compositions they have not seen,
	// each costing a cold execution, so the schedules about to be timed are
	// then replayed under the same concurrency until a whole round admits
	// nothing new: the timed phases measure a hot service, not the tail of
	// its warm-up.
	all := &opLog{}
	start := time.Now()
	var fill []int
	for i := range e.in.Pool {
		fill = append(fill, i, i)
	}
	warmup, _ := s.closedLoop(ctx, e.in.Pool, fill, 1)
	for round := 0; round < sc.warmRounds; round++ {
		before := s.opt.ResultCacheStats().Admissions
		for _, draws := range [][]int{e.in.Prefix, e.in.Closed} {
			reqs, _ := s.closedLoop(ctx, e.in.Pool, draws, sc.clients)
			warmup = append(warmup, reqs...)
		}
		for _, seg := range e.in.Open {
			// The open loop's windows follow from its arrival times, so
			// the first round replays the schedule itself; later rounds
			// only need its texts, two at a time.
			if round == 0 {
				warmup = append(warmup, s.openLoop(ctx, e.in.Pool, seg, sc.outstanding)...)
				continue
			}
			draws := make([]int, len(seg.Arrivals))
			for i, a := range seg.Arrivals {
				draws[i] = a.Query
			}
			reqs, _ := s.closedLoop(ctx, e.in.Pool, draws, 2)
			warmup = append(warmup, reqs...)
		}
		s.opt.ResultCache().WaitPromotions()
		if s.opt.ResultCacheStats().Admissions == before {
			break
		}
	}
	fillS := time.Since(start).Seconds()
	e.verify(warmup, all)
	m.set("setup_s", setupS+fillS, sc.setupReps)
	all = all.untimed()

	segs := map[int]*opLog{}
	var timed []request
	for _, seg := range e.in.Open {
		reqs := s.openLoop(ctx, e.in.Pool, seg, sc.outstanding)
		segs[seg.RateQPS] = &opLog{}
		e.verify(reqs, segs[seg.RateQPS])
		timed = append(timed, reqs...)
	}
	closedS := e.seconds - float64(len(e.in.Open))*e.shape.OpenSeconds
	closed := &opLog{}
	var closedReqs []request
	var allocMB, makespans []float64
	repeatFor(closedS, sc.minPasses, func() {
		e.calibrate()
		before := allocBytes()
		reqs, span := s.closedLoop(ctx, e.in.Pool, e.in.Closed, sc.clients)
		allocMB = append(allocMB, float64(allocBytes()-before)/float64(len(reqs))/(1<<20))
		makespans = append(makespans, span.Seconds())
		closedReqs = append(closedReqs, reqs...)
	})
	e.verify(closedReqs, closed)
	timed = append(timed, closedReqs...)

	slo := segs[sloRate]
	all.absorb(closed)
	for _, l := range segs {
		all.absorb(l)
	}
	// The closed loop's time and allocation are the best replay's, as the
	// other workloads take each operation at its best: besides interference,
	// a window that still admits a new shared result executes cold, which
	// costs a thousand hot requests' time and memory and only ever adds.
	m.set("pass_s", slices.Min(makespans), len(makespans))
	m.set("p50_ms", median(slo.ms), len(slo.ms))
	m.set("slo_attainment", float64(slo.within)/float64(slo.attempted), slo.attempted)
	m.set("alloc_mb_per_op", slices.Min(allocMB), len(allocMB))
	// The open loop's latency is mostly the wait for its window to close,
	// which a slow machine does not stretch: p50_ms stays as measured.
	e.scaleTimes(m, "setup_s", "pass_s")
	if !e.trace {
		return all, nil
	}

	m.set("server.closed_qps", float64(len(e.in.Closed))/slices.Min(makespans), len(makespans))
	m.set("server.open_p95_ms", quantile(slo.ms, 0.95), len(slo.ms))
	m.set("server.p50_ms_r10", median(segs[10].ms), len(segs[10].ms))
	m.set("server.p50_ms_r40", median(segs[40].ms), len(segs[40].ms))
	m.set("server.slo_attainment_r10", float64(segs[10].within)/float64(segs[10].attempted), segs[10].attempted)
	m.set("server.slo_attainment_r40", float64(segs[40].within)/float64(segs[40].attempted), segs[40].attempted)
	var maxOK float64
	for rate, l := range segs {
		// A growing backlog shows as the last quarter of a segment
		// missing the limit even when most of the segment met it.
		tail := l.ms[len(l.ms)*3/4:]
		if float64(l.within)/float64(l.attempted) >= 0.95 && median(tail) <= float64(sloLimit)/1e6 {
			maxOK = max(maxOK, float64(rate))
		}
	}
	m.set("server.max_rate_ok_qps", maxOK, len(segs))
	setServiceMetrics(m, e.tr, timed)

	st := s.svc.Stats()
	m.set("server.batches", float64(st.Batches), 1)
	if st.Batches > 0 {
		m.set("server.coalesce_ratio", float64(st.Queries)/float64(st.Batches), int(st.Batches))
	}
	m.set("server.cost_saved_est", st.CostSaved, int(st.Batches))
	setCacheCounters(m, s.opt.ResultCacheStats(), s.opt.CacheStats())
	m.set("storage.warm_bytes", float64(s.db.WarmUsedBytes()), 1)
	return all, storageProbes(m, sc.serveSF, sc.servePool)
}

// setServiceMetrics rebuilds each request's spans from the BatchInfo its
// answer carries — parse, lower, wait for the window, then the batch's
// optimize, execute and spool phases — and sets the per-layer metrics the
// phases and the batches' execution stats give. The service times the
// phases itself; only their lengths are known, so they are laid end to end
// from the time the request was sent. Tracing adds no work to the service,
// hence no overhead to report.
func setServiceMetrics(m *measure, tr *tracer, reqs []request) {
	sums := map[string]float64{}
	seen := map[int64]bool{}
	var waits, batchMs []float64
	var lateMax time.Duration
	for i := range reqs {
		r := &reqs[i]
		lateMax = max(lateMax, r.sent.Sub(r.due))
		if r.refused || r.err != nil {
			continue
		}
		b, id := r.ans.Batch, tr.newBatch()
		root := tr.add("request", glueLayer, -1, id, r.sent, r.done)
		at := r.sent
		for _, ph := range []struct {
			name, layer string
			d           time.Duration
		}{
			{"parse", layerSQL, b.Phases.Parse}, {"lower", layerSQL, b.Phases.Lower},
			{"wait", layerServer, b.Wait}, {"optimize", layerCore, b.Phases.Optimize},
			{"execute", layerExec, b.Phases.Execute}, {"spool", layerCache, b.Phases.Spool},
		} {
			tr.add(ph.name, ph.layer, root, id, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
		sums["sql.parse_lower_s"] += (b.Phases.Parse + b.Phases.Lower).Seconds()
		sums["sql.queries"]++
		waits = append(waits, float64(b.Wait)/1e6)
		if seen[b.Seq] {
			continue
		}
		seen[b.Seq] = true
		sums["server.phase_optimize_s"] += b.Phases.Optimize.Seconds()
		sums["server.phase_execute_s"] += b.Phases.Execute.Seconds()
		sums["server.phase_spool_s"] += b.Phases.Spool.Seconds()
		sums["exec.run_s"] += b.Exec.Wall.Seconds()
		batchMs = append(batchMs, float64(b.Phases.Optimize+b.Phases.Execute+b.Phases.Spool)/1e6)
		addRunStats(sums, b.Exec)
	}
	m.setPerPass(sums, 1)
	if run := sums["exec.run_s"]; run > 0 {
		m.set("exec.base_rows_per_s", sums[baseRowsKey]/run, len(seen))
	}
	m.set("server.queue_wait_ms_p50", median(waits), len(waits))
	m.set("server.batch_ms_p50", median(batchMs), len(batchMs))
	m.set("server.gen_late_ms_max", float64(lateMax)/1e6, len(reqs))
	m.set("trace.coverage", tr.coverage(), len(waits))
	m.set("trace.overhead_frac", 0, 0)
}

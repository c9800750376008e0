package mqo

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/obs"
	"mqo/internal/physical"
	"mqo/internal/server"
	"mqo/internal/sql"
	"mqo/internal/storage"
)

// Optimizer is a session handle: it owns a catalog, a cost model, an
// optional plan cache and an optional attached database, and turns SQL text
// or algebra queries into optimized — and, with a database, executed —
// plans.
//
// An Optimizer is safe for concurrent use by multiple goroutines. The
// session compiles each SQL text it is sent (Run, OptimizeSQL, Service.Submit)
// once and keeps the lowered queries (stmtCache), and keeps per batch composition
// (memo) the logical AND-OR DAG, the physical DAG the last call searched —
// the next call re-costs it instead of building another — and the plans. Both
// rest on one rule: a query's tree is never written after lowering, so calls
// share trees — and a window that got one text twice holds one *Query twice. A
// call owns the physical DAG it searches, so no two calls ever share a DAG's
// mutable costing state (node costs and the materialized set are search
// scratch; a Result's plan carries its costs). Concurrent plan executions
// proceed in parallel on the attached database, each in a private temp-table
// namespace. Every Result the plan cache holds reaches a caller of
// OptimizeBatch, OptimizeSQL or Run as a defensive copy whose shared plan
// nodes must be treated as read-only; the service, which hands out only rows
// and BatchInfo, reads the cached plan in place.
type Optimizer struct {
	cat   *catalog.Catalog
	model cost.Model
	opts  core.Options
	db    *storage.DB
	stmts stmtCache
	memo  memo

	// Cross-batch result cache (WithResultCache): a row-backed store of
	// spooled intermediate results consulted around every executed batch.
	rcMu         sync.Mutex
	rcache       *cache.Manager
	rcBudget     int64
	rcWarmBudget int64
}

// Option configures an Optimizer at Open time.
type Option func(*Optimizer)

// WithModel replaces the default cost model.
func WithModel(m Model) Option { return func(o *Optimizer) { o.model = m } }

// WithDB attaches a database, enabling Run. The Optimizer takes ownership
// of plan execution on the database: callers must not execute plans on it
// concurrently through other means.
func WithDB(db *DB) Option { return func(o *Optimizer) { o.db = db } }

// WithPlanCache keeps up to n optimized plans, least recently used evicted
// first, in the session memo (see memo) under what the caller sent — each
// query's tree as written, in order — and how they were planned: batches of
// equal trees share one cached Result, and a hit builds no DAG. Against a
// result cache a plan that computes anything is reused only at the store
// generation it was planned at, one that only reads stored answers while the
// store holds them. The micro-batching service consults the plan cache
// before it queues a query (Service.SubmitQuery): without one, no query
// skips its window.
func WithPlanCache(n int) Option { return func(o *Optimizer) { o.memo.planCap = max(n, 0) } }

// WithResultCache enables the cross-batch transient result cache (the
// paper's §8 caching direction, made real): up to ramBytes of executed
// intermediate results are spooled into the database's cache namespace and
// survive across batches, so repeated subexpressions in later Run/Submit
// traffic are answered by scanning a cache table instead of being
// recomputed. Requires WithDB. Admission competes on value density
// (estimated recomputation cost saved per real stored byte), hits
// reinforce an entry's value, and eviction drops the weakest entries'
// spooled tables from storage. Optimize-only calls (OptimizeSQL,
// OptimizeBatch) never consult the result cache — it is an execution-layer
// store.
//
// warmBytes > 0 adds a disk-backed warm tier below the RAM tier: instead
// of dropping a value-dense entry, RAM eviction demotes it to a heap file
// on disk, where it keeps answering hits (priced at the cost model's
// higher WarmReadS per-page constant) until warm-tier eviction or
// promotion back to RAM. warmBytes = 0 keeps the single-tier behavior.
func WithResultCache(ramBytes, warmBytes int64) Option {
	return func(o *Optimizer) { o.rcBudget, o.rcWarmBudget = ramBytes, warmBytes }
}

// WithOptions sets the optimization options: the Greedy ablation switches
// and space budget, and the RU order.
func WithOptions(opt Options) Option { return func(o *Optimizer) { o.opts = opt } }

// Open creates an optimizer session over the given catalog.
func Open(cat *Catalog, opts ...Option) (*Optimizer, error) {
	if cat == nil {
		return nil, fmt.Errorf("mqo: Open: nil catalog")
	}
	o := &Optimizer{cat: cat, model: cost.DefaultModel(), memo: memo{entries: map[string]*memoEntry{}}}
	for _, opt := range opts {
		opt(o)
	}
	if o.rcBudget > 0 {
		if err := o.ensureResultCache(o.rcBudget, o.rcWarmBudget); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ensureResultCache creates the session result-cache store on first use
// (Open with WithResultCache, or Serve with ResultCacheBytes set), or
// resizes an existing store to the requested budgets — a smaller budget
// evicts (and, RAM side, demotes) immediately.
func (o *Optimizer) ensureResultCache(ramBytes, warmBytes int64) error {
	if o.db == nil {
		return fmt.Errorf("mqo: WithResultCache requires an attached database (use WithDB)")
	}
	o.rcMu.Lock()
	defer o.rcMu.Unlock()
	if o.rcache == nil {
		o.rcache = cache.NewStoreTiered(o.db, o.model, ramBytes, warmBytes, 0)
	} else if o.rcache.Budget() != ramBytes || o.rcache.WarmBudget() != warmBytes {
		o.rcache.SetBudgets(ramBytes, warmBytes)
	}
	return nil
}

// Close releases the session's serving-side resources — close a Service
// over the session first: in-flight warm-tier promotions drain, and the
// result cache drops every spooled table — RAM and warm — removing the warm
// tier's spill directory from disk, and the plans planned against it. The Optimizer remains usable for optimize-only (and
// plain Run) calls afterwards; a later Serve with ResultCacheBytes set
// re-creates the store.
func (o *Optimizer) Close() {
	o.rcMu.Lock()
	rc := o.rcache
	o.rcache = nil
	o.rcMu.Unlock()
	if rc != nil {
		rc.Close()
		o.memo.dropStore(rc)
	}
}

// resultCache returns the session's result-cache store, or nil.
func (o *Optimizer) resultCache() *cache.Manager {
	o.rcMu.Lock()
	defer o.rcMu.Unlock()
	return o.rcache
}

// ResultCache returns the session's cross-batch result-cache store (nil
// unless WithResultCache was used).
func (o *Optimizer) ResultCache() *ResultCache { return o.resultCache() }

// ResultCacheStats returns result-cache accounting; zero-valued when the
// result cache is disabled.
func (o *Optimizer) ResultCacheStats() ResultCacheStats {
	if rc := o.resultCache(); rc != nil {
		return rc.Stats()
	}
	return ResultCacheStats{}
}

// Catalog returns the session's catalog.
func (o *Optimizer) Catalog() *Catalog { return o.cat }

// Model returns the session's cost model.
func (o *Optimizer) Model() Model { return o.model }

// DB returns the attached database, or nil.
func (o *Optimizer) DB() *DB { return o.db }

// ParseSQL parses a semicolon-separated batch of SELECT statements against
// the session catalog into algebra queries. The trees are the caller's to
// change: ParseSQL parses the text afresh every time, and the session never
// holds on to what it returns.
func (o *Optimizer) ParseSQL(sqlText string) ([]*Query, error) {
	queries, _, err := o.parseSQLTimed(sqlText)
	return queries, err
}

// parseSQLTimed is ParseSQL plus the parse/lower phase breakdown, observed
// on the registry's serving-phase histograms.
func (o *Optimizer) parseSQLTimed(sqlText string) ([]*Query, server.PhaseTimes, error) {
	queries, t, err := sql.ParseBatchTimed(o.cat, sqlText)
	pt := server.PhaseTimes{Parse: t.Parse, Lower: t.Lower}
	if err == nil {
		phaseParse.ObserveDuration(t.Parse)
		phaseLower.ObserveDuration(t.Lower)
	}
	return queries, pt, err
}

// OptimizeBatch optimizes a batch of algebra queries with the selected
// algorithm. The call searches a physical DAG of its own — the one an
// earlier call on these trees left idle, or one built over the logical DAG
// the session expanded the first time it saw them — or the whole Result is
// served from the plan cache when enabled, so concurrent calls never
// interfere. A cancelled context aborts the optimization promptly with
// ctx.Err().
func (o *Optimizer) OptimizeBatch(ctx context.Context, queries []*Query, alg Algorithm) (*Result, error) {
	var meta execMeta
	res, _, _, err := o.planBatch(ctx, nil, queries, alg, nil, &meta)
	if meta.planCached {
		res = cloneResult(res, &meta)
	}
	return res, err
}

// OptimizeSQL parses a semicolon-separated SQL batch and optimizes it; see
// OptimizeBatch. A text the session has compiled before is not parsed again.
func (o *Optimizer) OptimizeSQL(ctx context.Context, sqlText string, alg Algorithm) (*Result, error) {
	queries, _, err := o.compile(sqlText)
	if err != nil {
		return nil, err
	}
	return o.OptimizeBatch(ctx, queries, alg)
}

// Batch describes one optimize-then-execute request for Run. Exactly one
// of SQL and Queries must be set; setting both (or neither) is an error.
type Batch struct {
	// SQL is a semicolon-separated batch of SELECT statements, parsed
	// against the session catalog the first time the session sees the text.
	SQL string
	// Queries is the batch in algebra form.
	Queries []*Query
	// Algorithm selects the optimization strategy (zero value: Volcano).
	Algorithm Algorithm
	// ParamSets drives parameterized (correlated / §8 abstracted) plans:
	// the parameter-dependent part runs once per binding set.
	ParamSets []map[string]Value
	// Analyze profiles the execution per operator: the returned
	// ExecResult.Exec.Profile holds the measured operator tree that
	// exec.FormatAnalyze renders (EXPLAIN ANALYZE).
	Analyze bool
}

// ExecResult is the outcome of Run: the optimization Result plus the
// executed rows and the measured execution profile.
type ExecResult struct {
	*Result
	// Queries holds per-query rows, in batch order.
	Queries []QueryResult
	// Exec reports measured page I/O, simulated time and wall time.
	Exec RunStats
}

// Run optimizes the batch and executes the resulting plan on the attached
// database: shared results are materialized once, every query of the batch
// runs against them, and per-query rows plus measured statistics are
// returned. Requires WithDB. Concurrent executions proceed in parallel
// over the database's buffer pool, each in its own temp-table
// namespace; a cancelled context aborts both optimization and execution
// with ctx.Err().
func (o *Optimizer) Run(ctx context.Context, batch Batch) (*ExecResult, error) {
	if o.db == nil {
		return nil, fmt.Errorf("mqo: Run: no database attached (use WithDB)")
	}
	if len(batch.Queries) > 0 && batch.SQL != "" {
		return nil, fmt.Errorf("mqo: Run: set exactly one of Batch.SQL and Batch.Queries, not both")
	}
	queries := batch.Queries
	if len(queries) == 0 && batch.SQL != "" {
		var err error
		if queries, _, err = o.compile(batch.SQL); err != nil {
			return nil, err
		}
	}
	res, meta, err := o.runOnDB(ctx, queries, batch.Algorithm,
		&exec.Env{ParamSets: batch.ParamSets, Profile: batch.Analyze})
	if err != nil {
		return nil, err
	}
	phaseOptimize.ObserveDuration(meta.Phases.Optimize)
	if meta.planCached {
		res.Result = cloneResult(res.Result, &meta)
	}
	return res, nil
}

// execMeta reports what the caches did for one executed batch (the
// micro-batching service's accounting).
type execMeta struct {
	// PlanCacheHit reports whether the plan came from the session plan
	// cache.
	PlanCacheHit bool
	// planCached reports that the Result is the one the plan cache holds —
	// a hit's, or a miss's that cached it — so a caller outside the session
	// gets a copy (cloneResult), while the service reads it in place.
	planCached bool
	// ResultCacheHits counts distinct spooled tables the executed plan
	// read; ResultCacheSpools counts results the batch admitted and wrote.
	ResultCacheHits   int
	ResultCacheSpools int
	// Phases is the batch's optimize/execute/spool timing breakdown
	// (parse/lower are per-query and filled in by the service).
	Phases server.PhaseTimes
}

// planBatch is the one optimize sequence behind OptimizeBatch, Run and the
// batching service: keys → plan-cache probe → and on a miss only, physical
// DAG checked out of the memo → arm → optimize → spools → DAG checked back in
// → put. The memo key is the queries' trees as the caller sent them, so a hit
// touches no DAG at all. A Result the plan cache holds is returned as it is
// (meta.planCached): the public calls copy it, the service only reads it. rc
// is the result-cache store to plan against, nil for optimize-only calls and
// cache-less sessions; a nil store yields a nil ticket, which arms, admits and
// pins nothing. The optimize and spool phase times and the plan-cache outcome
// are recorded in meta.
func (o *Optimizer) planBatch(ctx context.Context, rc *cache.Manager, queries []*Query, alg Algorithm,
	paramSets []map[string]algebra.Value, meta *execMeta) (*Result, *cache.Ticket, map[*physical.Node]string, error) {

	if len(queries) == 0 {
		return nil, nil, nil, fmt.Errorf("mqo: empty query batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	mk, key := o.stmts.key(queries), newPlanKey(alg, rc, paramSets)
	defer mk.release()
	trees := mk.b // read by the memo only until the call returns
	if o.memo.planCap > 0 {
		if res, ticket, ok := o.memo.get(trees, key, rc); ok {
			meta.PlanCacheHit, meta.planCached = true, true
			meta.Phases.Optimize = time.Since(start)
			return res, ticket, nil, nil
		}
	}
	ent, pd, err := o.memo.checkout(o.cat, o.model, trees, queries)
	if err != nil {
		return nil, nil, nil, err
	}
	// Read before arming: a generation that moves while Arm runs then only
	// makes the plan look older than it is.
	gen := rc.Generation()
	ticket := rc.Arm(pd, paramSets)
	res, err := core.Optimize(ctx, pd, alg, o.opts)
	if err != nil {
		ticket.Abort()
		return nil, nil, nil, err
	}
	meta.Phases.Optimize = time.Since(start)
	spoolStart := time.Now()
	spools := ticket.PlanSpools(res.Plan) // reads the DAG's costs
	meta.Phases.Spool = time.Since(spoolStart)
	o.memo.checkin(ent, pd)
	if o.memo.planCap > 0 && len(spools) == 0 && len(ticket.BindingSpools()) == 0 {
		// Nothing newly spooled: the plan is reusable — at this generation
		// if it computes anything, at any if it only reads stored answers.
		// A spooling batch bumps the generation on commit, so its plan would
		// be dead on arrival.
		o.memo.put(trees, key, res, rc, gen)
		meta.planCached = true
	}
	return res, ticket, spools, nil
}

// planStoredAlone gives every query whose answer the batch's plan reads
// straight from the store a plan-cache entry of its own, if it has none. The
// query is planned by itself against the store — a DAG of its own, so the
// entry does not keep the batch's alive — with the table the batch's plan
// read named as its answer (cache.Ticket.ArmAnswer: its fingerprint alone
// need not be the one it was stored under), and cached if that plan too only
// reads it. Best effort: a query it cannot plan simply keeps to the windows.
func (o *Optimizer) planStoredAlone(ctx context.Context, queries []*Query, alg Algorithm, plan *Plan) {
	for i, pn := range plan.QueryRoots() {
		if pn.E.Kind == physical.CacheScanOp && o.planOneStored(ctx, queries[i:i+1], alg, pn) != nil {
			return
		}
	}
}

// planOneStored is planStoredAlone for one query, alone, whose answer the
// batch's plan read at pn.
func (o *Optimizer) planOneStored(ctx context.Context, alone []*Query, alg Algorithm, pn *physical.PlanNode) error {
	rc, key := o.resultCache(), planKey{alg: alg, stored: true}
	mk := o.stmts.key(alone)
	defer mk.release()
	if found, _ := o.memo.peek(mk.b, key); found {
		return nil
	}
	ent, pd, err := o.memo.checkout(o.cat, o.model, mk.b, alone)
	if err != nil {
		return err
	}
	gen := rc.Generation()
	ticket := rc.Arm(pd, nil)
	ticket.ArmAnswer(pd, pd.QueryRoots[0], pn.E.Arm.CacheName, pn.E.Arm.CacheTier)
	res, err := core.Optimize(ctx, pd, alg, o.opts)
	ticket.Abort()
	if err != nil {
		return err
	}
	o.memo.checkin(ent, pd)
	if readsOnlyStored(res.Plan) {
		o.memo.put(mk.b, key, res, rc, gen)
	}
	return nil
}

// runOnDB optimizes one batch and executes the plan on the attached
// database — the single execution path behind Run and the micro-batching
// service. With a result cache enabled the store is consulted around the
// batch: ready entries are armed on the batch DAG before the search (so
// every algorithm prices cache hits natively), the chosen plan's worthwhile
// results are spooled during execution, and the ticket commits — real byte
// accounting, hit reinforcement, eviction — once the run succeeds, or
// aborts when it fails. Without one the ticket is nil and does nothing. The
// caller observes the optimize phase once its time is final (Service.runBatch
// adds what seeding took), and copies a Result the plan cache holds before
// it leaves the session.
func (o *Optimizer) runOnDB(ctx context.Context, queries []*Query, alg Algorithm, env *exec.Env) (*ExecResult, execMeta, error) {
	meta := execMeta{}
	// While tracing, each batch gets its own trace track, so the
	// optimizer-phase and executor spans recorded below it line up per batch
	// in the trace view. Off, a span on track 0 records nothing.
	var track int64
	if obs.Tracing() {
		track = obs.NewTrack()
		ctx = obs.WithTrack(ctx, track)
		defer obs.StartSpan("batch", track, map[string]string{
			"algorithm": alg.String(), "queries": strconv.Itoa(len(queries))}).End()
	}

	optSpan := obs.StartSpan("optimize", track, nil)
	res, ticket, spools, err := o.planBatch(ctx, o.resultCache(), queries, alg, env.ParamSets, &meta)
	optSpan.End()
	if err != nil {
		return nil, meta, err
	}
	env.Cache = &exec.CacheIO{Spools: spools, BindSpools: ticket.BindingSpools()}
	results, stats, err := exec.Run(ctx, o.db, o.model, res.Plan, env)
	if err != nil {
		ticket.Abort()
		return nil, meta, err
	}
	meta.Phases.Execute = stats.Wall
	phaseExecute.ObserveDuration(stats.Wall)
	if ticket != nil {
		spoolStart := time.Now()
		meta.ResultCacheHits = ticket.Commit()
		meta.ResultCacheSpools = len(spools)
		for _, binds := range ticket.BindingSpools() {
			meta.ResultCacheSpools += len(binds)
		}
		meta.Phases.Spool += time.Since(spoolStart)
		phaseSpool.ObserveDuration(meta.Phases.Spool)
	}
	return &ExecResult{Result: res, Queries: results, Exec: stats}, meta, nil
}

// CacheStats returns plan-cache accounting; zero-valued when the plan
// cache is disabled.
func (o *Optimizer) CacheStats() CacheStats { return o.memo.stats() }

package mqo

import (
	"context"
	"fmt"
	"strconv"
	"strings"
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
// session compiles each SQL text it is sent (Submit, Run, OptimizeSQL) once
// and keeps the lowered queries (stmtCache); it expands each batch
// composition into its logical AND-OR DAG once and keeps it (dagMemo), with
// the physical DAG over it that the last call searched: the next call
// re-costs that one instead of building another. Both rest on one rule: a
// query's tree is never written after lowering, so calls share trees — and a
// batching window that got one text twice holds the same *Query twice. A
// call owns the physical DAG it searches, so no two calls ever share a DAG's
// mutable costing state (Node.Cost and the materialized set are search
// scratch; a Result's plan carries its costs). The plan cache is
// mutex-guarded, and concurrent plan executions proceed in parallel on the
// attached database, each in a private temp-table namespace. Plan-cache hits
// hand each caller a defensive copy whose shared plan nodes must be treated
// as read-only.
type Optimizer struct {
	cat   *catalog.Catalog
	model cost.Model
	opts  core.Options
	db    *storage.DB
	cache *planCache
	stmts stmtCache
	dags  dagMemo

	// keyPrefix is the "algorithm|options|" head of a plan-cache key, by
	// algorithm; options do not change after Open, which renders it.
	keyPrefix map[Algorithm]string

	// Cross-batch result cache (WithResultCache): a row-backed store of
	// spooled intermediate results consulted around every executed batch.
	rcMu         sync.Mutex
	rcache       *cache.Manager
	rcBudget     int64
	rcWarmBudget int64

	// Micro-batching service behind Submit, started on first use.
	svcCfg  BatchingOptions
	svcOnce sync.Once
	svc     *Service
	svcErr  error
}

// Option configures an Optimizer at Open time.
type Option func(*Optimizer)

// WithModel replaces the default cost model.
func WithModel(m Model) Option { return func(o *Optimizer) { o.model = m } }

// WithDB attaches a database, enabling Run. The Optimizer takes ownership
// of plan execution on the database: callers must not execute plans on it
// concurrently through other means.
func WithDB(db *DB) Option { return func(o *Optimizer) { o.db = db } }

// WithPlanCache enables an LRU cache of optimized plans holding up to n
// batches. The key is what the caller sent — each query's tree as written, in
// order, with the algorithm and options — so batches of equal trees share one
// cached Result and a hit builds no DAG. Against a result cache an entry also
// knows the store generation it was planned at: a plan that computes anything
// is reused only at that generation, a plan that only reads stored answers for
// as long as the store still holds them (see planCache). The micro-batching
// service consults the plan cache before it queues a query
// (Service.SubmitQuery): without one, no query skips its batching window.
func WithPlanCache(n int) Option {
	return func(o *Optimizer) {
		o.cache = nil
		if n > 0 {
			o.cache = newPlanCache(n)
		}
	}
}

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

// WithSpaceBudget bounds the total size of materialized results chosen by
// Greedy to the given number of bytes (the paper's §8 extension).
func WithSpaceBudget(bytes int64) Option {
	return func(o *Optimizer) { o.opts.Greedy.SpaceBudgetBytes = bytes }
}

// WithOptions replaces the full optimization options (ablation switches,
// RU order). Later options still override individual fields.
func WithOptions(opt Options) Option { return func(o *Optimizer) { o.opts = opt } }

// WithBatching tunes the micro-batching service behind Optimizer.Submit
// (window size, max wait, workers, algorithm). It does not start the
// service; the first Submit does.
func WithBatching(cfg BatchingOptions) Option { return func(o *Optimizer) { o.svcCfg = cfg } }

// Open creates an optimizer session over the given catalog.
func Open(cat *Catalog, opts ...Option) (*Optimizer, error) {
	if cat == nil {
		return nil, fmt.Errorf("mqo: Open: nil catalog")
	}
	o := &Optimizer{cat: cat, model: cost.DefaultModel()}
	for _, opt := range opts {
		opt(o)
	}
	o.keyPrefix = map[Algorithm]string{}
	for _, alg := range core.Algorithms() {
		o.keyPrefix[alg] = renderKeyPrefix(alg, o.opts)
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

// Close releases the session's serving-side resources: the micro-batching
// service (if Submit started one) stops accepting work, in-flight warm-tier
// promotions drain, and the result cache drops every spooled table — RAM
// and warm — removing the warm tier's spill directory from disk. The
// Optimizer remains usable for optimize-only (and plain Run) calls
// afterwards; a later Serve with ResultCacheBytes set re-creates the store.
func (o *Optimizer) Close() {
	o.svcOnce.Do(func() {})
	if o.svc != nil {
		o.svc.Close()
	}
	o.rcMu.Lock()
	rc := o.rcache
	o.rcache = nil
	o.rcMu.Unlock()
	if rc != nil {
		rc.Close()
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

// ParseAlgorithm maps a user-facing name to an Algorithm; see the
// package-level ParseAlgorithm.
func (o *Optimizer) ParseAlgorithm(name string) (Algorithm, error) { return ParseAlgorithm(name) }

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
	res, _, _, err := o.planBatch(ctx, nil, queries, alg, nil, &execMeta{})
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
	res, _, err := o.runOnDB(ctx, queries, batch.Algorithm,
		&exec.Env{ParamSets: batch.ParamSets, Profile: batch.Analyze})
	return res, err
}

// execMeta reports what the caches did for one executed batch (the
// micro-batching service's accounting).
type execMeta struct {
	// PlanCacheHit reports whether the plan came from the session plan
	// cache.
	PlanCacheHit bool
	// ResultCacheHits counts distinct spooled tables the executed plan
	// read; ResultCacheSpools counts results the batch admitted and wrote.
	ResultCacheHits   int
	ResultCacheSpools int
	// Phases is the batch's optimize/execute/spool timing breakdown
	// (parse/lower are per-query and filled in by the service).
	Phases server.PhaseTimes
}

// planBatch is the one optimize sequence behind OptimizeBatch, Run and the
// batching service: key → plan-cache probe → and on a miss only, physical DAG
// checked out of the memo → arm → optimize → spools → DAG checked back in →
// put. The key is rendered from the queries as the caller sent them, so a hit
// touches no DAG at all, and its trees part keys the memo. rc is the
// result-cache store to plan against, nil for optimize-only calls and
// cache-less sessions; a nil store yields a nil ticket, which arms, admits
// and pins nothing. The optimize and spool phase times and the plan-cache
// outcome are recorded in meta.
func (o *Optimizer) planBatch(ctx context.Context, rc *cache.Manager, queries []*Query, alg Algorithm,
	paramSets []map[string]algebra.Value, meta *execMeta) (*Result, *cache.Ticket, map[*physical.Node]string, error) {

	if len(queries) == 0 {
		return nil, nil, nil, fmt.Errorf("mqo: empty query batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	trees := o.stmts.treesKey(queries)
	var key string
	if o.cache != nil {
		key = o.batchKey(trees, alg, rc != nil, paramSets)
		if res, ticket, ok := o.cache.get(key, rc); ok {
			meta.PlanCacheHit = true
			meta.Phases.Optimize = time.Since(start)
			return res, ticket, nil, nil
		}
	}
	ent, pd, err := o.dags.checkout(o.cat, o.model, trees, queries)
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
	spools := ticket.PlanSpools(res.Plan) // reads Node.Cost
	meta.Phases.Spool = time.Since(spoolStart)
	o.dags.checkin(ent, pd)
	if o.cache != nil && len(spools) == 0 && len(ticket.BindingSpools()) == 0 {
		// Nothing newly spooled: the plan is reusable — at this generation
		// if it computes anything, at any if it only reads stored answers.
		// A spooling batch bumps the generation on commit, so its plan would
		// be dead on arrival. The miss caller gets a defensive copy too: the
		// stored entry is what every later hit clones from, so no caller may
		// alias it.
		o.cache.put(key, res, rc, gen)
		res = cloneResult(res)
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
	rc := o.resultCache()
	for i, pn := range plan.QueryRoots() {
		if pn.E.Kind != physical.CacheScanOp {
			continue
		}
		alone := queries[i : i+1]
		trees := o.stmts.treesKey(alone)
		key := o.batchKey(trees, alg, true, nil)
		if found, _ := o.cache.peek(key); found {
			continue
		}
		ent, pd, err := o.dags.checkout(o.cat, o.model, trees, alone)
		if err != nil {
			return
		}
		gen := rc.Generation()
		ticket := rc.Arm(pd, nil)
		ticket.ArmAnswer(pd, pd.QueryRoots[0], pn.E.Arm.CacheName, pn.E.Arm.CacheTier)
		res, err := core.Optimize(ctx, pd, alg, o.opts)
		ticket.Abort()
		if err != nil {
			return
		}
		o.dags.checkin(ent, pd)
		if readsOnlyStored(res.Plan) {
			o.cache.put(key, res, rc, gen)
		}
	}
}

// runOnDB optimizes one batch and executes the plan on the attached
// database — the single execution path behind Run and the micro-batching
// service. With a result cache enabled the store is consulted around the
// batch: ready entries are armed on the batch DAG before the search (so
// every algorithm prices cache hits natively), the chosen plan's worthwhile
// results are spooled during execution, and the ticket commits — real byte
// accounting, hit reinforcement, eviction — once the run succeeds, or
// aborts when it fails. Without one the ticket is nil and does nothing.
func (o *Optimizer) runOnDB(ctx context.Context, queries []*Query, alg Algorithm, env *exec.Env) (*ExecResult, execMeta, error) {
	meta := execMeta{}
	// Each batch gets its own trace track, so the optimizer-phase and
	// executor spans recorded below it line up per batch in the trace view.
	track := obs.NewTrack()
	ctx = obs.WithTrack(ctx, track)
	span := obs.StartSpan("batch", track, map[string]string{
		"algorithm": alg.String(), "queries": strconv.Itoa(len(queries))})
	defer span.End()

	optSpan := obs.StartSpan("optimize", track, nil)
	res, ticket, spools, err := o.planBatch(ctx, o.resultCache(), queries, alg, env.ParamSets, &meta)
	optSpan.End()
	if err != nil {
		return nil, meta, err
	}
	phaseOptimize.ObserveDuration(meta.Phases.Optimize)
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

// Submit enqueues one SELECT for micro-batched execution on the session's
// batching service, starting the service on first use (tune it with
// WithBatching). Unlike Run — which executes the caller's batch alone —
// Submit coalesces concurrent callers' queries into one MQO batch, so
// independent requests share work. Requires WithDB. Blocks until the
// batch has run or ctx is done. A text the session has compiled before is
// neither parsed nor lowered again: every Submit of it hands the service the
// same tree, which nothing writes after lowering, so one window can hold the
// same *Query twice (see Service.Submit).
func (o *Optimizer) Submit(ctx context.Context, sqlText string) (*Answer, error) {
	o.svcOnce.Do(func() { o.svc, o.svcErr = Serve(o, o.svcCfg) })
	if o.svcErr != nil {
		return nil, o.svcErr
	}
	return o.svc.Submit(ctx, sqlText)
}

// CacheStats returns plan-cache accounting; zero-valued when the plan
// cache is disabled.
func (o *Optimizer) CacheStats() CacheStats {
	if o.cache == nil {
		return CacheStats{}
	}
	return o.cache.stats()
}

// batchKey renders the plan-cache key of a batch from what the caller sent,
// before any DAG exists: how the batch is optimized (algorithm and options),
// its trees (stmtCache.treesKey), whether it is planned against a
// result-cache store — an optimize-only call and an executed batch never
// share a plan — and the concrete parameter bindings: a parameterized plan
// depends on which bindings were armed, so the same SQL with different
// ParamSets must not share one.
func (o *Optimizer) batchKey(trees string, alg Algorithm, stored bool, paramSets []map[string]algebra.Value) string {
	prefix, ok := o.keyPrefix[alg]
	if !ok { // no such algorithm: Optimize will say so
		prefix = renderKeyPrefix(alg, o.opts)
	}
	var b strings.Builder
	b.Grow(len(prefix) + len(trees) + len("|rc"))
	b.WriteString(prefix)
	b.WriteString(trees)
	if stored {
		b.WriteString("|rc")
		if len(paramSets) > 0 {
			b.WriteString("|ps" + bindingsSignature(paramSets))
		}
	}
	return b.String()
}

// renderKeyPrefix renders the part of a plan-cache key that says how the
// batch is optimized.
func renderKeyPrefix(alg Algorithm, opts core.Options) string {
	return fmt.Sprintf("%v|%+v|", alg, opts)
}

// bindingsSignature renders a batch's parameter bindings for the
// plan-cache key, preserving ParamSets order (the executed row order
// depends on it).
func bindingsSignature(sets []map[string]algebra.Value) string {
	parts := make([]string, len(sets))
	for i, ps := range sets {
		parts[i] = algebra.BindingKey(ps)
	}
	return strings.Join(parts, ";")
}

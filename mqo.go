// Package mqo is a from-scratch Go implementation of "Efficient and
// Extensible Algorithms for Multi Query Optimization" (Roy, Seshadri,
// Sudarshan, Bhobe; SIGMOD 2000): a Volcano-style cost-based optimizer over
// AND-OR DAGs with three multi-query-optimization heuristics — Volcano-SH,
// Volcano-RU and Greedy — plus a SQL front end, a storage engine and an
// iterator-based executor able to run the optimized plans.
//
// The public surface is session-oriented: Open returns an *Optimizer that
// owns the catalog, cost model, plan cache and (optionally) an attached
// database, and is safe for concurrent use by multiple goroutines. A
// typical session goes from SQL text to executed rows:
//
//	db := mqo.NewDB(1024)
//	cat := tpcd.Catalog(0.01)        // or build one with mqo.NewCatalog()
//	opt, err := mqo.Open(cat, mqo.WithDB(db), mqo.WithPlanCache(128))
//	res, err := opt.Run(ctx, mqo.Batch{
//		SQL: "SELECT nname, SUM(lprice) AS rev FROM lineitem, supplier, nation " +
//			"WHERE lsk = sk AND snk = nk GROUP BY nname",
//		Algorithm: mqo.Greedy,
//	})
//	// res.Queries[0].Rows holds the result; res.Cost the estimated cost;
//	// res.Materialized the shared intermediate results Greedy chose.
//
// Optimization without execution is available through OptimizeSQL and
// OptimizeBatch; ParseAlgorithm maps user-facing names ("greedy",
// "volcano-ru", ...) to Algorithm values; WithResultCache turns on the
// paper's §8 result cache — a row-backed store of spooled intermediate
// results that survives across batches, so repeated subexpressions in
// later traffic are answered from storage. Each search runs on one
// goroutine; a session runs independent calls concurrently.
//
// For live traffic — independent concurrent requests rather than a
// pre-assembled batch — Serve runs an adaptive micro-batching service that
// coalesces whatever arrives within a batching window into one MQO batch,
// executes the shared plan once, and hands each caller its own query's
// rows; ServiceHandler exposes the service over HTTP+JSON (see
// cmd/mqorun's -serve).
package mqo

import (
	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// Re-exported types: the vocabulary of a session.
type (
	// Algorithm selects one of the paper's optimization strategies.
	Algorithm = core.Algorithm
	// Options configures optimization (greedy ablations, RU order).
	Options = core.Options
	// GreedyOptions are the §6.3 ablation switches.
	GreedyOptions = core.GreedyOptions
	// Result is an optimized batch: plan, cost, materialized set, stats.
	Result = core.Result
	// Stats is per-run instrumentation (opt time, greedy counters). A
	// Result served from the session plan cache reports the serving call's
	// own optimize time as OptTime; its other fields describe the search
	// that built the plan.
	Stats = core.Stats
	// Model holds the cost-model constants (§6).
	Model = cost.Model
	// Catalog describes base relations and statistics.
	Catalog = catalog.Catalog
	// Table is one catalog entry: schema, statistics, indexes.
	Table = catalog.Table
	// ColDef describes one column of a base table.
	ColDef = catalog.ColDef
	// IndexDef describes an index available on a base table.
	IndexDef = catalog.IndexDef
	// Plan is a consolidated, executable evaluation plan.
	Plan = physical.Plan
	// Query is one query of a batch, expressed in the logical algebra.
	Query = algebra.Tree
	// Value is a runtime SQL value (parameter bindings, result rows).
	Value = algebra.Value
	// Type is a SQL value type (TInt, TFloat, TString, TDate).
	Type = algebra.Type
	// Column is a qualified column reference.
	Column = algebra.Column
	// ColInfo is one column of a schema: reference plus type.
	ColInfo = algebra.ColInfo
	// Schema describes the columns of a relation or result.
	Schema = algebra.Schema
	// Row is one stored or result row.
	Row = storage.Row
	// DB is the storage engine an Optimizer executes plans against.
	DB = storage.DB
	// QueryResult is the executed output of one query of a batch.
	QueryResult = exec.QueryResult
	// RunStats is the measured execution profile of a batch run.
	RunStats = exec.RunStats
	// BatchProfile is the per-operator measured profile of an analyzed run
	// (Batch.Analyze): one tree per materialization and per query root.
	BatchProfile = exec.BatchProfile
	// NodeProfile is one operator's measured execution profile.
	NodeProfile = exec.NodeProfile
	// ResultCache is the cross-batch transient result cache (the paper's
	// §8 caching direction): a concurrency-safe, row-backed store of
	// spooled intermediate results consulted around every executed batch.
	// Enable it with WithResultCache.
	ResultCache = cache.Manager
	// ResultCacheStats is the result cache's accounting (hit rate, bytes,
	// admissions, evictions).
	ResultCacheStats = cache.Stats
	// CacheEntry is one cached materialized result.
	CacheEntry = cache.Entry
	// Abstraction is the result of AbstractParameterized.
	Abstraction = core.Abstraction
)

// The four strategies of the paper's §6.
const (
	Volcano   = core.Volcano
	VolcanoSH = core.VolcanoSH
	VolcanoRU = core.VolcanoRU
	Greedy    = core.Greedy
)

// SQL value types.
const (
	TInt    = algebra.TInt
	TFloat  = algebra.TFloat
	TString = algebra.TString
	TDate   = algebra.TDate
)

// Col builds a qualified column reference (alias, name).
func Col(qual, name string) Column { return algebra.Col(qual, name) }

// Algorithms lists all strategies in presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// ParseAlgorithm maps a user-facing name to an Algorithm. Accepted names
// (case-insensitive): volcano, volcano-sh, sh, volcano-ru, ru, greedy.
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// DefaultModel returns the paper's cost constants (4 KB blocks, 10 ms seek,
// 2/4 ms per block read/write, 0.2 ms CPU per block, 6 MB per operator).
func DefaultModel() Model { return cost.DefaultModel() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// Column-definition helpers for building catalog tables.
var (
	// IntCol is an integer column with the given distinct count.
	IntCol = catalog.IntCol
	// IntColRange is an integer column with distinct count and value range.
	IntColRange = catalog.IntColRange
	// FloatColRange is a float column with distinct count and value range.
	FloatColRange = catalog.FloatColRange
	// DateColRange is a date column with distinct count and value range.
	DateColRange = catalog.DateColRange
	// StrCol is a string column with the given width and distinct count.
	StrCol = catalog.StrCol
)

// Value constructors for parameter bindings and loaded rows.
var (
	IntVal    = algebra.IntVal
	FloatVal  = algebra.FloatVal
	StringVal = algebra.StringVal
	DateVal   = algebra.DateVal
)

// NewDB creates an in-process database with a buffer pool of the given
// number of pages, for use with WithDB.
func NewDB(poolPages int) *DB { return storage.NewDB(poolPages) }

// AbstractParameterized implements the paper's §8 workload abstraction:
// queries differing only in selection constants are merged into one
// parameterized query invoked multiple times.
func AbstractParameterized(batch []*Query) *Abstraction { return core.AbstractParameterized(batch) }

// FormatAnalyze renders an analyzed run (Batch.Analyze) as EXPLAIN ANALYZE
// text: per operator, the optimizer's estimated cost and cardinality
// against the measured rows, pages, bytes and wall time.
func FormatAnalyze(stats RunStats) string { return exec.FormatAnalyze(stats) }

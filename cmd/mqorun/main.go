// Command mqorun optimizes a workload with a chosen algorithm, executes the
// plan on generated data, and reports plan cost, measured I/O and result
// sizes. The workload is either one of the built-in benchmarks or an ad hoc
// SQL batch over the TPC-D schema. With -serve it runs the same session as a
// concurrent query service instead.
//
//	mqorun -workload bq -n 3 -alg greedy -sf 0.002
//	mqorun -workload cq -n 2 -alg volcano-ru
//	mqorun -workload q2ni -dag -analyze
//	mqorun -sql "SELECT nname, SUM(lprice) AS r FROM lineitem, supplier, nation \
//	             WHERE lsk = sk AND snk = nk GROUP BY nname"
//	mqorun -serve :8080 -max-batch 8 -max-wait 2ms -alg greedy
//	mqorun -serve :8080 -workload ssb -resultcache 16777216
//	mqorun -serve :8080 -resultcache 4194304 -resultcache-warm 33554432
//
// With -dag the expanded AND-OR DAG is printed first: its size, then each
// logical group with its sharability degree and its operation nodes. With
// -analyze each run's plan is re-printed EXPLAIN ANALYZE style: per
// operator, the optimizer's estimated cost and cardinality against the
// measured rows, pages and wall time. With -trace the spans of every batch
// (batch, optimize, per-phase opt:*, exec) are written to a chrome://tracing
// file at the end.
//
// With -serve ADDR the workload picks only the schema and data (bq and the
// q* workloads: TPC-D; cq: PSP; ssb, ssbdrill: SSB), and mqorun serves
// HTTP+JSON on ADDR:
//
//	POST /query    {"sql": "SELECT ...", "timeout_ms": 0}
//	GET  /stats    batching + plan-cache accounting
//	GET  /metrics  Prometheus text exposition of the obs registry
//	GET  /debug/pprof/...  net/http/pprof profiles
//
// Concurrent POST /query requests that land in the same batching window
// (-max-batch, -max-wait) are optimized and executed together on -workers
// workers; each caller receives its own rows plus the batch's sharing
// report (size, shared vs. no-sharing cost). SIGINT/SIGTERM shut the server
// down gracefully: the listener closes, the open batching window flushes,
// in-flight batches drain, and a final stats line is logged.
//
// A bad flag or flag value, or an unknown workload or algorithm, exits with
// status 2; a failed run with status 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"mqo"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/obs"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mqorun: %v\n", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line mqorun cannot run at all.
type usageError struct{ error }

// namedWorkload is one built-in workload: the catalog and data generator of
// its schema, and its queries given -n (1..maxN; a workload with maxN 0
// ignores it) and the scale factor. A nested workload's Invoke runs once
// per outer part key, bound as pk = 1..tpcd.Q2Invocations(sf).
type namedWorkload struct {
	name    string
	catalog func(sf float64) *mqo.Catalog
	load    func(db *mqo.DB, sf float64, seed int64) error
	maxN    int
	queries func(n int, sf float64) []*mqo.Query
	nested  bool
}

var workloads = []namedWorkload{
	{"bq", tpcd.Catalog, tpcd.LoadDB, 5, func(n int, _ float64) []*mqo.Query { return tpcd.BatchQueries(n) }, false},
	{"cq", psp.Catalog, psp.LoadDB, 5, func(n int, _ float64) []*mqo.Query { return psp.CQ(n) }, false},
	{"q11", tpcd.Catalog, tpcd.LoadDB, 0, func(int, float64) []*mqo.Query { return []*mqo.Query{tpcd.Q11()} }, false},
	{"q15", tpcd.Catalog, tpcd.LoadDB, 0, func(int, float64) []*mqo.Query { return []*mqo.Query{tpcd.Q15()} }, false},
	{"q2", tpcd.Catalog, tpcd.LoadDB, 0, func(_ int, sf float64) []*mqo.Query { return tpcd.Q2(sf) }, true},
	{"q2d", tpcd.Catalog, tpcd.LoadDB, 0, func(int, float64) []*mqo.Query { return tpcd.Q2D() }, false},
	{"q2ni", tpcd.Catalog, tpcd.LoadDB, 0, func(_ int, sf float64) []*mqo.Query { return tpcd.Q2NI(sf) }, true},
	{"ssb", ssb.Catalog, ssb.LoadDB, ssb.NumFlights, func(n int, _ float64) []*mqo.Query { return ssb.Flight(n) }, false},
	{"ssbdrill", ssb.Catalog, ssb.LoadDB, ssb.NumFlights, func(n int, _ float64) []*mqo.Query { return ssb.DrillDownBatch(n, ssb.MaxDrillSteps) }, false},
}

// dataSeed seeds every generated database.
const dataSeed = 1

// Bounds of the serving flags: the batcher keeps a counter per batch size
// up to -max-batch and starts -workers goroutines.
const (
	maxMaxBatch = 1024
	maxWorkers  = 64
)

func run(args []string, out io.Writer) error {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("mqorun", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is reported on one line, by main
	workload := fs.String("workload", "bq", "workload: "+strings.Join(names, "|")+" (with -serve, its schema and data)")
	n := fs.Int("n", 2, "composite size for bq/cq (1-5), flight number for ssb/ssbdrill (1-4)")
	algName := fs.String("alg", "greedy", "algorithm: volcano|volcano-sh|volcano-ru|greedy")
	sf := fs.Float64("sf", 0.002, "data scale factor (> 0)")
	pool := fs.Int("pool", 1024, "buffer pool pages")
	planCache := fs.Int("plancache", 128, "plan-cache capacity in batches (0 disables)")
	resCache := fs.Int64("resultcache", 0, "cross-batch result-cache RAM budget in bytes (0 disables)")
	resCacheWarm := fs.Int64("resultcache-warm", 0, "disk-backed warm-tier budget in bytes, with -resultcache (0 disables tiering)")
	traceOut := fs.String("trace", "", "write a chrome://tracing span dump to this file at the end")
	repeat := fs.Int("repeat", 1, "run the batch this many times (with -resultcache, later passes hit the cache)")
	sqlSrc := fs.String("sql", "", "semicolon-separated SELECT batch over the TPC-D schema (overrides -workload)")
	showDAG := fs.Bool("dag", false, "print the expanded logical DAG with its groups' sharability degrees")
	analyze := fs.Bool("analyze", false, "EXPLAIN ANALYZE: print per-operator measured vs. estimated stats after execution")
	serveAddr := fs.String("serve", "", "serve HTTP on this address instead of running the batch once")
	maxBatch := fs.Int("max-batch", 8, fmt.Sprintf("with -serve, flush a batching window at this many queries (1-%d)", maxMaxBatch))
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "with -serve, max time the first query of a window waits (> 0)")
	workers := fs.Int("workers", 2, fmt.Sprintf("with -serve, concurrently in-flight batches (1-%d)", maxWorkers))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.PrintDefaults()
			return nil
		}
		return usageError{err}
	}
	if err := checkRanges(*sf, *resCache, *resCacheWarm, *maxBatch, *maxWait, *workers); err != nil {
		return usageError{err}
	}
	if *serveAddr != "" && *sqlSrc != "" {
		return usageError{errors.New("-sql is a batch to run once; it cannot be served")}
	}

	alg, err := mqo.ParseAlgorithm(*algName)
	if err != nil {
		return usageError{err}
	}
	// -sql batches run over the TPC-D schema.
	w := namedWorkload{catalog: tpcd.Catalog, load: tpcd.LoadDB}
	batch := mqo.Batch{Algorithm: alg, Analyze: *analyze}
	if *sqlSrc == "" {
		i := slices.IndexFunc(workloads, func(w namedWorkload) bool { return w.name == *workload })
		if i < 0 {
			return usageError{fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(names, "|"))}
		}
		w = workloads[i]
		if w.maxN > 0 && (*n < 1 || *n > w.maxN) {
			return usageError{fmt.Errorf("-n %d outside 1-%d for workload %s", *n, w.maxN, w.name)}
		}
		batch.Queries = w.queries(*n, *sf)
		if w.nested {
			for pk := int64(1); pk <= tpcd.Q2Invocations(*sf); pk++ {
				batch.ParamSets = append(batch.ParamSets, map[string]mqo.Value{"pk": mqo.IntVal(pk)})
			}
		}
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.StartTracing()
		defer obs.StopTracing()
	}
	if *serveAddr != "" {
		cfg := mqo.BatchingOptions{MaxBatch: *maxBatch, MaxWait: *maxWait, Workers: *workers,
			ResultCacheBytes: *resCache, ResultCacheWarmBytes: *resCacheWarm}
		if err := serve(*serveAddr, w, *sf, *pool, *planCache, cfg, *algName); err != nil {
			return err
		}
		return writeTrace(tracer, *traceOut)
	}

	db, opt, err := openSession(w, *sf, *pool, *planCache, *resCache, *resCacheWarm)
	if err != nil {
		return err
	}
	defer opt.Close()
	if *sqlSrc != "" {
		// Parse before generating data, so bad SQL fails fast.
		if batch.Queries, err = opt.ParseSQL(*sqlSrc); err != nil {
			return err
		}
	}
	if *showDAG {
		if err := printDAG(out, opt.Catalog(), batch.Queries); err != nil {
			return err
		}
	}
	if err := w.load(db, *sf, dataSeed); err != nil {
		return fmt.Errorf("loading data: %w", err)
	}
	for pass := 1; pass <= max(*repeat, 1); pass++ {
		res, err := opt.Run(context.Background(), batch)
		if err != nil {
			return err
		}
		if *repeat > 1 {
			fmt.Fprintf(out, "== pass %d/%d ==\n", pass, *repeat)
		}
		fmt.Fprintf(out, "queries=%d algorithm=%v\n", len(res.Queries), alg)
		fmt.Fprintf(out, "estimated cost: %.2f s   optimization time: %v   materialized nodes: %d\n",
			res.Cost, res.Stats.OptTime, len(res.Materialized))
		fmt.Fprintln(out, res.Plan)

		fmt.Fprintf(out, "executed: %d queries, %d rows total, reads=%d writes=%d, simulated time %.3f s, wall %v\n",
			len(res.Queries), res.Exec.RowsOut, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime, res.Exec.Wall)
		for i, qr := range res.Queries {
			fmt.Fprintf(out, "  query %d: %d rows\n", i, len(qr.Rows))
		}
		if *analyze {
			fmt.Fprintln(out, "\n-- EXPLAIN ANALYZE --")
			fmt.Fprint(out, mqo.FormatAnalyze(res.Exec))
		}
	}
	if *resCache > 0 {
		st := opt.ResultCacheStats()
		fmt.Fprintf(out, "result cache: %d entries, %d/%d bytes, hit-rate %.0f%%, admitted %d, evicted %d, est saved %.2f s\n",
			st.Entries, st.UsedBytes, st.BudgetBytes, 100*st.HitRate(), st.Admissions, st.Evictions, st.SavedCostEst)
		if *resCacheWarm > 0 {
			fmt.Fprintf(out, "warm tier: %d entries, %d/%d bytes, warm hits %d, demotions %d, promotions %d\n",
				st.WarmEntries, st.WarmUsedBytes, st.WarmBudgetBytes, st.WarmHits, st.Demotions, st.Promotions)
		}
	}
	return writeTrace(tracer, *traceOut)
}

// checkRanges refuses the flag values no run or service can use.
func checkRanges(sf float64, resCache, resCacheWarm int64, maxBatch int, maxWait time.Duration, workers int) error {
	switch {
	case !(sf > 0) || math.IsInf(sf, 1):
		return fmt.Errorf("-sf %g: want a finite scale factor > 0", sf)
	case resCache < 0 || resCacheWarm < 0:
		return fmt.Errorf("-resultcache %d -resultcache-warm %d: budgets cannot be negative", resCache, resCacheWarm)
	case resCacheWarm > 0 && resCache == 0:
		return errors.New("-resultcache-warm tiers a result cache: set -resultcache too")
	case maxBatch < 1 || maxBatch > maxMaxBatch:
		return fmt.Errorf("-max-batch %d outside 1-%d", maxBatch, maxMaxBatch)
	case maxWait <= 0:
		return fmt.Errorf("-max-wait %v: want > 0", maxWait)
	case workers < 1 || workers > maxWorkers:
		return fmt.Errorf("-workers %d outside 1-%d", workers, maxWorkers)
	}
	return nil
}

// openSession opens the session both modes run on: an empty database of
// pool pages and an optimizer over w's catalog at scale sf, with the plan
// cache and the result cache the flags ask for. The caller loads the data.
func openSession(w namedWorkload, sf float64, pool, planCache int, resCache, resCacheWarm int64) (*mqo.DB, *mqo.Optimizer, error) {
	db := mqo.NewDB(pool)
	opts := []mqo.Option{mqo.WithDB(db), mqo.WithPlanCache(planCache)}
	if resCache > 0 {
		opts = append(opts, mqo.WithResultCache(resCache, resCacheWarm))
	}
	opt, err := mqo.Open(w.catalog(sf), opts...)
	return db, opt, err
}

// serve runs the service on addr until SIGINT or SIGTERM, then drains it,
// closes the session (removing the warm tier's spill files) and logs the
// service's final stats.
func serve(addr string, w namedWorkload, sf float64, pool, planCache int, cfg mqo.BatchingOptions, algName string) error {
	handler, svc, opt, err := newService(w, sf, pool, planCache, cfg, algName)
	if err != nil {
		return err
	}
	defer opt.Close()
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	log.Printf("mqorun: serving %s sf=%g on %s (max-batch %d, max-wait %s, workers %d, %s)",
		w.name, sf, addr, cfg.MaxBatch, cfg.MaxWait, cfg.Workers, algName)
	err = srv.ListenAndServe()
	// Graceful drain: the listener is closed, so no new submissions arrive;
	// Close flushes the open window and waits for in-flight batches.
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	final, _ := json.Marshal(svc.Stats())
	log.Printf("mqorun: drained; final stats %s", final)
	return nil
}

// newService boots the whole serving stack: w's generated data, a session
// with a plan cache, the micro-batching service and its HTTP handler with
// the observability routes. Close the service, then the session. Shared
// with the end-to-end tests.
func newService(w namedWorkload, sf float64, pool, planCache int, cfg mqo.BatchingOptions, algName string) (http.Handler, *mqo.Service, *mqo.Optimizer, error) {
	alg, err := mqo.ParseAlgorithm(algName)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Algorithm = alg
	cfg.UseVolcano = alg == mqo.Volcano
	db, opt, err := openSession(w, sf, pool, planCache, cfg.ResultCacheBytes, cfg.ResultCacheWarmBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := w.load(db, sf, dataSeed); err != nil {
		return nil, nil, nil, fmt.Errorf("loading %s data: %w", w.name, err)
	}
	svc, err := mqo.Serve(opt, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return withObsRoutes(mqo.ServiceHandler(svc)), svc, opt, nil
}

// withObsRoutes mounts the observability surface next to the service API:
// GET /metrics (Prometheus text exposition of the default registry) and the
// net/http/pprof handlers under /debug/pprof/.
func withObsRoutes(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeTrace stops tr and writes its spans to path in chrome://tracing
// format; a nil tr (no -trace) writes nothing.
func writeTrace(tr *obs.Tracer, path string) error {
	if tr == nil {
		return nil
	}
	obs.StopTracing()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	log.Printf("mqorun: wrote %d trace spans to %s", len(tr.Spans()), path)
	return nil
}

// printDAG prints the batch's expanded AND-OR DAG: a summary line, then
// every live logical group with its estimated rows, its sharability degree
// when above one, and its operation nodes by child group.
func printDAG(out io.Writer, cat *mqo.Catalog, queries []*mqo.Query) error {
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), queries)
	if err != nil {
		return err
	}
	degrees := core.ComputeSharability(pd)
	groups := pd.L.LiveGroups()
	fmt.Fprintf(out, "queries: %d   logical groups: %d   operation nodes: %d (of %d derived, %d duplicates)   physical nodes: %d\n",
		len(queries), len(groups), pd.L.NumExprs(), pd.L.Derivations, pd.L.Duplicates, len(pd.Nodes))
	fmt.Fprintln(out, "\n-- expanded logical DAG --")
	for _, g := range groups {
		shar := ""
		if degrees[g] > 1 {
			shar = fmt.Sprintf("  [sharable, degree %.0f]", degrees[g])
		}
		fmt.Fprintf(out, "group %d (rows %.0f)%s\n", g.ID, g.Rel.Rows, shar)
		for _, e := range g.Exprs {
			children := make([]string, len(e.Children))
			for i, c := range e.Children {
				children[i] = fmt.Sprint(c.Find().ID)
			}
			tag := ""
			if e.Subsumption {
				tag = "  (subsumption)"
			}
			fmt.Fprintf(out, "  %s(%s)%s\n", e.Op, strings.Join(children, ","), tag)
		}
	}
	fmt.Fprintln(out)
	return nil
}

// Command mqoserver is a concurrent query service over generated benchmark
// data (TPC-D or SSB): an HTTP+JSON front end whose adaptive micro-batcher
// coalesces concurrent requests into multi-query-optimization batches.
//
//	mqoserver -addr :8080 -sf 0.01 -max-batch 8 -max-wait 2ms -alg greedy
//	mqoserver -workload ssb -sf 0.01 -resultcache 16777216
//	mqoserver -resultcache 4194304 -resultcache-warm 33554432   # tiered
//	mqoserver -trace out.json     # chrome://tracing span dump on shutdown
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT ...", "timeout_ms": 0}
//	GET  /stats    batching + plan-cache accounting
//	GET  /metrics  Prometheus text exposition of the obs registry
//	GET  /debug/pprof/...  net/http/pprof profiles
//
// Concurrent POST /query requests that land in the same batching window
// are optimized and executed together; each caller receives its own rows
// plus the batch's sharing report (size, shared vs. no-sharing cost).
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes, the
// open batching window flushes, in-flight batches drain, and a final stats
// line (batches, queries, cost saved) is logged.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mqo"
	"mqo/internal/obs"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workload     = flag.String("workload", "tpcd", "generated schema and data: tpcd|ssb")
		sf           = flag.Float64("sf", 0.01, "scale factor for the generated data")
		seed         = flag.Int64("seed", 1, "data generator seed")
		pool         = flag.Int("pool", 1024, "buffer pool size in pages")
		planCache    = flag.Int("plancache", 128, "plan-cache capacity in batches (0 disables)")
		resCache     = flag.Int64("resultcache", 0, "cross-batch result-cache RAM budget in bytes (0 disables)")
		resCacheWarm = flag.Int64("resultcache-warm", 0, "disk-backed warm-tier budget in bytes (0 disables tiering)")
		maxBatch     = flag.Int("max-batch", 8, "flush a batching window at this many queries")
		maxWait      = flag.Duration("max-wait", 2*time.Millisecond, "max time the first query of a window waits")
		workers      = flag.Int("workers", 2, "concurrently in-flight batches")
		algName      = flag.String("alg", "greedy", "optimization algorithm (volcano|volcano-sh|volcano-ru|greedy)")
		traceOut     = flag.String("trace", "", "write a chrome://tracing span dump to this file on shutdown")
		noObs        = flag.Bool("no-obs", false, "disable metrics collection (observability overhead benchmark)")
	)
	flag.Parse()

	obs.SetEnabled(!*noObs)
	if *traceOut != "" {
		obs.StartTracing()
	}

	handler, svc, err := newService(*workload, *sf, *seed, *pool, *planCache, mqo.BatchingOptions{
		MaxBatch:             *maxBatch,
		MaxWait:              *maxWait,
		Workers:              *workers,
		ResultCacheBytes:     *resCache,
		ResultCacheWarmBytes: *resCacheWarm,
	}, *algName)
	if err != nil {
		log.Fatalf("mqoserver: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()

	log.Printf("mqoserver: serving %s sf=%g on %s (max-batch %d, max-wait %s, %s)",
		*workload, *sf, *addr, *maxBatch, *maxWait, *algName)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mqoserver: %v", err)
	}

	// Graceful drain: the listener is closed, so no new submissions arrive;
	// Close flushes the open window and waits for in-flight batches.
	svc.Close()
	if *traceOut != "" {
		writeTrace(*traceOut)
	}
	st := svc.Stats()
	final, _ := json.Marshal(st)
	log.Printf("mqoserver: drained; final stats %s", final)
}

// writeTrace dumps the collected spans in chrome://tracing format.
func writeTrace(path string) {
	tr := obs.StopTracing()
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("mqoserver: trace: %v", err)
		return
	}
	defer f.Close()
	if err := tr.WriteChromeTrace(f); err != nil {
		log.Printf("mqoserver: trace: %v", err)
		return
	}
	log.Printf("mqoserver: wrote %d trace spans to %s", len(tr.Spans()), path)
}

// newService boots the whole stack: generated benchmark data (TPC-D or
// SSB), a session optimizer with a plan cache, the micro-batching service
// and its HTTP handler. Shared with the end-to-end test.
func newService(workload string, sf float64, seed int64, poolPages, planCache int, cfg mqo.BatchingOptions, algName string) (http.Handler, *mqo.Service, error) {
	alg, err := mqo.ParseAlgorithm(algName)
	if err != nil {
		return nil, nil, err
	}
	cfg.Algorithm = alg
	cfg.UseVolcano = alg == mqo.Volcano

	var (
		cat  *mqo.Catalog
		load func(*mqo.DB, float64, int64) error
	)
	switch workload {
	case "tpcd":
		cat, load = tpcd.Catalog(sf), tpcd.LoadDB
	case "ssb":
		cat, load = ssb.Catalog(sf), ssb.LoadDB
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want tpcd or ssb)", workload)
	}
	db := mqo.NewDB(poolPages)
	if err := load(db, sf, seed); err != nil {
		return nil, nil, fmt.Errorf("loading %s data: %w", workload, err)
	}
	opts := []mqo.Option{mqo.WithDB(db)}
	if planCache > 0 {
		opts = append(opts, mqo.WithPlanCache(planCache))
	}
	opt, err := mqo.Open(cat, opts...)
	if err != nil {
		return nil, nil, err
	}
	svc, err := mqo.Serve(opt, cfg)
	if err != nil {
		return nil, nil, err
	}
	return withObsRoutes(mqo.ServiceHandler(svc)), svc, nil
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

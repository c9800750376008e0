// Benchmarks of the public API on the paths the repository's benchmark
// workloads time: a session optimizing opt_scaleup's batches, one stored
// Submit and serve_zipf_hot's closed loop, and dss_batch_cold's pass. The
// paper's figures are cmd/mqopaper's (-json), pinned by internal/bench's
// TestPaperOutputsPinned.
package mqo_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqo"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// BenchmarkOptimizeAllAlgorithms measures one session optimizing a batch
// under all four algorithms, plan cache off: what opt_scaleup does per batch,
// one sub-benchmark for each of its eleven batches — TPC-D BQ1..BQ5 and PSP
// CQ1..CQ5 at SF 1, and BQ5 for six tenants. The session expands the batch
// and builds its physical DAG once, before the timer; each operation then
// resets that DAG's costing state and searches it, four times. The figures to
// read are ns/op and B/op.
func BenchmarkOptimizeAllAlgorithms(b *testing.B) {
	type batch struct {
		name    string
		cat     *mqo.Catalog
		queries []*mqo.Query
	}
	var batches []batch
	for i := 1; i <= 5; i++ {
		batches = append(batches, batch{fmt.Sprintf("BQ%d", i), tpcd.Catalog(1), tpcd.BatchQueries(i)})
	}
	for i := 1; i <= 5; i++ {
		batches = append(batches, batch{fmt.Sprintf("CQ%d", i), psp.Catalog(1), psp.CQ(i)})
	}
	const tenants = 6
	batches = append(batches, batch{fmt.Sprintf("BQ5x%d", tenants), tpcd.TenantCatalog(1, tenants), tpcd.TenantBatch(5, tenants)})
	for _, bt := range batches {
		b.Run(bt.name, func(b *testing.B) {
			opt, err := mqo.Open(bt.cat)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := opt.OptimizeBatch(ctx, bt.queries, mqo.Volcano); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				for _, alg := range mqo.Algorithms() {
					if _, err := opt.OptimizeBatch(ctx, bt.queries, alg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// servePool is serve_zipf_hot's pool without its seeded variants: the 13
// SSB queries and the 16 drill-down steps of the four flights.
func servePool() []string {
	pool := ssb.AllQuerySQL()
	for f := 1; f <= ssb.NumFlights; f++ {
		pool = append(pool, ssb.DrillDownSQL(f, ssb.MaxDrillSteps)...)
	}
	return pool
}

// hotService opens a service over SSB at SF 0.0005 with a 64-plan cache and
// a 16 MB result cache, which holds every answer of servePool.
func hotService(b *testing.B, cfg mqo.BatchingOptions) *mqo.Service {
	b.Helper()
	const sf = 0.0005
	db := mqo.NewDB(64)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		b.Fatal(err)
	}
	opt, err := mqo.Open(ssb.Catalog(sf), mqo.WithDB(db), mqo.WithPlanCache(64))
	if err != nil {
		b.Fatal(err)
	}
	cfg.ResultCacheBytes = 16 << 20
	svc, err := mqo.Serve(opt, cfg)
	if err != nil {
		opt.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		svc.Close()
		opt.Close()
	})
	return svc
}

// storeAll submits each text three times on its own, so its answer is
// computed, read back and its stored-answer plan cached, and fails unless
// the last answer was served stored.
func storeAll(b *testing.B, svc *mqo.Service, texts []string) {
	b.Helper()
	for _, text := range texts {
		var ans *mqo.Answer
		var err error
		for i := 0; i < 3; i++ {
			if ans, err = svc.Submit(context.Background(), text); err != nil {
				b.Fatal(err)
			}
		}
		if !ans.Batch.Stored || !ans.Batch.CacheHit {
			b.Fatalf("warm-up left the answer unstored: %+v\n%s", ans.Batch, text)
		}
	}
}

// BenchmarkHotSubmit measures one Submit whose whole answer the result cache
// already holds — SSB Q1.1. Only the first warm-up Submit of a text parses
// and lowers it; a timed Submit finds it compiled, so what it measures is
// the plan-cache key and hit, pin, a one-row cache-table scan and commit.
// stored=1 holds Q1.1's answer alone, stored=29 every answer of servePool:
// a cost that grows with the store shows as the difference. MaxBatch 1
// keeps the batching window's timer out of the figure on either side of a
// comparison. The figures to read are ns/op, B/op and allocs/op.
func BenchmarkHotSubmit(b *testing.B) {
	text := ssb.QuerySQL(1, 0)
	for _, texts := range [][]string{{text}, servePool()} {
		b.Run(fmt.Sprintf("stored=%d", len(texts)), func(b *testing.B) {
			svc := hotService(b, mqo.BatchingOptions{MaxBatch: 1})
			storeAll(b, svc, texts)
			ctx := context.Background()
			var ans *mqo.Answer
			var err error
			b.ReportAllocs()
			for b.Loop() {
				if ans, err = svc.Submit(ctx, text); err != nil {
					b.Fatal(err)
				}
			}
			if !ans.Batch.Stored || len(ans.Query.Rows) != 1 {
				b.Fatalf("the timed Submits were not served from the store: %+v, %d rows", ans.Batch, len(ans.Query.Rows))
			}
		})
	}
}

// BenchmarkServeClosedLoop is serve_zipf_hot's closed loop: eight clients,
// each sending its next text when the last is answered, replay 1 000
// Zipf(1.1) draws over servePool against two workers with windows of up to
// eight texts or 2 ms. The service is warmed up until a whole replay is
// served stored, so an op is one replay of a hot service: what concurrent
// stored answers cost, the result cache's commit under its one lock
// included. stored_frac is the share of timed answers served stored.
func BenchmarkServeClosedLoop(b *testing.B) {
	const clients, draws = 8, 1000
	pool := servePool()
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(pool)-1))
	replay := make([]string, draws)
	for i := range replay {
		replay[i] = pool[zipf.Uint64()]
	}
	svc := hotService(b, mqo.BatchingOptions{Workers: 2, MaxBatch: 8, MaxWait: 2 * time.Millisecond})
	storeAll(b, svc, pool)
	run := func() (stored int) {
		var next, nStored atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < draws; i = next.Add(1) - 1 {
					ans, err := svc.Submit(context.Background(), replay[i])
					if err != nil {
						errs <- err
						return
					}
					if ans.Batch.Stored {
						nStored.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
		return int(nStored.Load())
	}
	for round := 1; run() < draws; round++ {
		if round == 10 {
			b.Fatal("ten warm-up replays and still answers computed, not stored")
		}
	}
	stored, total := 0, 0
	b.ReportAllocs()
	for b.Loop() {
		stored += run()
		total += draws
	}
	b.ReportMetric(float64(stored)/float64(total), "stored_frac")
}

// dssSession opens a session over a database of pool pages loaded by load,
// with every cache off.
func dssSession(b *testing.B, cat *mqo.Catalog, pool int, load func(*mqo.DB) error) *mqo.Optimizer {
	b.Helper()
	db := mqo.NewDB(pool)
	if err := load(db); err != nil {
		b.Fatal(err)
	}
	opt, err := mqo.Open(cat, mqo.WithDB(db))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { opt.Close() })
	return opt
}

// sessionBatch is a batch and the session it runs on.
type sessionBatch struct {
	opt   *mqo.Optimizer
	batch mqo.Batch
}

// runBatches times running each batch once and reports the pool reads the
// runs took, per operation.
func runBatches(b *testing.B, batches []sessionBatch) {
	b.Helper()
	ctx := context.Background()
	reads := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range batches {
			res, err := r.opt.Run(ctx, r.batch)
			if err != nil {
				b.Fatal(err)
			}
			reads += res.Exec.IO.Reads
		}
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// BenchmarkDSSPass is one pass of the benchmark's dss_batch_cold workload
// (seed 11): the four SSB flights at SF 0.005 over a 512-page pool and
// TPC-D BQ5 at SF 0.001 over a 64-page pool, each one batch through
// Optimizer.Run under Greedy, the tables several times the pool. The queries
// of a batch that scan one table share a pass over it, so reads/op is the
// pages the passes fault. The figures to read are ns/op, B/op and reads/op.
func BenchmarkDSSPass(b *testing.B) {
	const seed = 11
	ssbOpt := dssSession(b, ssb.Catalog(0.005), 512, func(db *mqo.DB) error { return ssb.LoadDB(db, 0.005, seed) })
	tpcdOpt := dssSession(b, tpcd.Catalog(0.001), 64, func(db *mqo.DB) error { return tpcd.LoadDB(db, 0.001, seed) })
	var batches []sessionBatch
	for f := 1; f <= ssb.NumFlights; f++ {
		batches = append(batches, sessionBatch{ssbOpt, mqo.Batch{SQL: ssb.FlightSQL(f), Algorithm: mqo.Greedy}})
	}
	batches = append(batches, sessionBatch{tpcdOpt, mqo.Batch{Queries: tpcd.BatchQueries(5), Algorithm: mqo.Greedy}})
	runBatches(b, batches)
}

// BenchmarkBQ5Greedy runs TPC-D BQ5 under Greedy at SF 0.01 over a 64-page
// pool, where Greedy's plan is estimated cheaper than Volcano's but executes
// slower: its one materialization sorts all of lineitem.
func BenchmarkBQ5Greedy(b *testing.B) {
	opt := dssSession(b, tpcd.Catalog(0.01), 64, func(db *mqo.DB) error { return tpcd.LoadDB(db, 0.01, 11) })
	runBatches(b, []sessionBatch{{opt, mqo.Batch{Queries: tpcd.BatchQueries(5), Algorithm: mqo.Greedy}}})
}

// Command mqorun optimizes a workload with a chosen algorithm, executes the
// plan on generated data, and reports plan cost, measured I/O and result
// sizes. The workload is either one of the built-in benchmarks or an ad hoc
// SQL batch over the TPC-D schema.
//
//	mqorun -workload bq -n 3 -alg greedy -sf 0.002
//	mqorun -workload cq -n 2 -alg volcano-ru
//	mqorun -sql "SELECT nname, SUM(lprice) AS r FROM lineitem, supplier, nation \
//	             WHERE lsk = sk AND snk = nk GROUP BY nname"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mqo"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

func main() {
	workload := flag.String("workload", "bq", "workload: bq|cq|q11|q15|q2d|ssb|ssbdrill")
	n := flag.Int("n", 2, "composite size for bq (1-5) / cq (1-5), flight number for ssb/ssbdrill (1-4)")
	algName := flag.String("alg", "greedy", "algorithm: volcano|volcano-sh|volcano-ru|greedy")
	sf := flag.Float64("sf", 0.002, "data scale factor for execution")
	pool := flag.Int("pool", 1024, "buffer pool pages")
	resCache := flag.Int64("resultcache", 0, "cross-batch result-cache RAM budget in bytes (0 disables)")
	resCacheWarm := flag.Int64("resultcache-warm", 0, "disk-backed warm-tier budget in bytes (0 disables tiering)")
	repeat := flag.Int("repeat", 1, "run the batch this many times (with -resultcache, later passes hit the cache)")
	sqlSrc := flag.String("sql", "", "semicolon-separated SELECT batch over the TPC-D schema (overrides -workload)")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: print per-operator measured vs. estimated stats after execution")
	flag.Parse()

	alg, err := mqo.ParseAlgorithm(*algName)
	if err != nil {
		fail(err)
	}

	db := mqo.NewDB(*pool)
	sessionOpts := []mqo.Option{mqo.WithDB(db)}
	if *resCache > 0 {
		sessionOpts = append(sessionOpts, mqo.WithResultCache(*resCache, *resCacheWarm))
	}
	var (
		batch = mqo.Batch{Algorithm: alg, Analyze: *analyze}
		opt   *mqo.Optimizer
	)
	if *sqlSrc != "" {
		// Parse before generating data, so bad SQL fails fast.
		opt, err = mqo.Open(tpcd.Catalog(*sf), sessionOpts...)
		if err == nil {
			batch.Queries, err = opt.ParseSQL(*sqlSrc)
		}
		if err == nil {
			err = tpcd.LoadDB(db, *sf, 1)
		}
	} else {
		var cat *mqo.Catalog
		batch.Queries, cat, err = namedWorkload(*workload, *n, *sf, db)
		if err == nil {
			opt, err = mqo.Open(cat, sessionOpts...)
		}
	}
	if err != nil {
		fail(err)
	}
	if *repeat < 1 {
		*repeat = 1
	}
	for pass := 1; pass <= *repeat; pass++ {
		res, err := opt.Run(context.Background(), batch)
		if err != nil {
			fail(err)
		}
		if *repeat > 1 {
			fmt.Printf("== pass %d/%d ==\n", pass, *repeat)
		}
		fmt.Printf("queries=%d algorithm=%v\n", len(res.Queries), alg)
		fmt.Printf("estimated cost: %.2f s   optimization time: %v   materialized nodes: %d\n",
			res.Cost, res.Stats.OptTime, len(res.Materialized))
		fmt.Println(res.Plan)

		fmt.Printf("executed: %d queries, %d rows total, reads=%d writes=%d, simulated time %.3f s, wall %v\n",
			len(res.Queries), res.Exec.RowsOut, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime, res.Exec.Wall)
		for i, qr := range res.Queries {
			fmt.Printf("  query %d: %d rows\n", i, len(qr.Rows))
		}
		if *analyze {
			fmt.Println("\n-- EXPLAIN ANALYZE --")
			fmt.Print(mqo.FormatAnalyze(res.Exec))
		}
	}
	if *resCache > 0 {
		st := opt.ResultCacheStats()
		fmt.Printf("result cache: %d entries, %d/%d bytes, hit-rate %.0f%%, admitted %d, evicted %d, est saved %.2f s\n",
			st.Entries, st.UsedBytes, st.BudgetBytes, 100*st.HitRate(), st.Admissions, st.Evictions, st.SavedCostEst)
		if *resCacheWarm > 0 {
			fmt.Printf("warm tier: %d entries, %d/%d bytes, warm hits %d, demotions %d, promotions %d\n",
				st.WarmEntries, st.WarmUsedBytes, st.WarmBudgetBytes, st.WarmHits, st.Demotions, st.Promotions)
		}
		opt.Close()
	}
}

// namedWorkload loads one of the built-in workloads into db and returns
// its queries and catalog.
func namedWorkload(workload string, n int, sf float64, db *mqo.DB) ([]*mqo.Query, *mqo.Catalog, error) {
	switch workload {
	case "bq":
		return tpcd.BatchQueries(n), tpcd.Catalog(sf), tpcd.LoadDB(db, sf, 1)
	case "q11":
		return []*mqo.Query{tpcd.Q11()}, tpcd.Catalog(sf), tpcd.LoadDB(db, sf, 1)
	case "q15":
		return []*mqo.Query{tpcd.Q15()}, tpcd.Catalog(sf), tpcd.LoadDB(db, sf, 1)
	case "q2d":
		return tpcd.Q2D(), tpcd.Catalog(sf), tpcd.LoadDB(db, sf, 1)
	case "cq":
		return psp.CQ(n), psp.Catalog(sf), psp.LoadDB(db, sf, 1)
	case "ssb":
		return ssb.Flight(n), ssb.Catalog(sf), ssb.LoadDB(db, sf, 1)
	case "ssbdrill":
		return ssb.DrillDownBatch(n, ssb.MaxDrillSteps), ssb.Catalog(sf), ssb.LoadDB(db, sf, 1)
	}
	return nil, nil, fmt.Errorf("unknown workload %q", workload)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mqorun: %v\n", err)
	os.Exit(1)
}

package mqo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"mqo"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// ExampleOpen shows the minimal optimization session.
func ExampleOpen() {
	opt, err := mqo.Open(tpcd.Catalog(1))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	batch := []*mqo.Query{tpcd.Q11()}
	v, _ := opt.OptimizeBatch(ctx, batch, mqo.Volcano)
	g, _ := opt.OptimizeBatch(ctx, batch, mqo.Greedy)
	fmt.Printf("greedy beats volcano: %v\n", g.Cost < v.Cost)
	fmt.Printf("materialized shared results: %v\n", len(g.Materialized) > 0)
	// Output:
	// greedy beats volcano: true
	// materialized shared results: true
}

// The session API end to end, using only the public mqo package: define a
// schema, load data, open a session, optimize a SQL batch with each
// algorithm, and execute the best plan.
//
// The scenario is the paper's Example 1.1 in miniature: two reports over
// the same filtered join σ(R)⋈S, extended differently. Plain Volcano
// optimizes each query alone; Greedy discovers that materializing the
// shared join once is globally cheaper.
func ExampleOptimizer_Run() {
	// 1. Define and load three base relations R(id, fk, num), S, T.
	db := mqo.NewDB(1024)
	cat := mqo.NewCatalog()
	rng := rand.New(rand.NewSource(1))
	const rows = 5000
	for _, name := range []string{"R", "S", "T"} {
		schema := mqo.Schema{
			{Col: mqo.Col(name, "id"), Typ: mqo.TInt},
			{Col: mqo.Col(name, "fk"), Typ: mqo.TInt},
			{Col: mqo.Col(name, "num"), Typ: mqo.TInt},
		}
		tab, err := db.CreateTable(name, schema)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			_, err := tab.Heap.Insert(mqo.Row{
				mqo.IntVal(int64(i + 1)),
				mqo.IntVal(rng.Int63n(rows) + 1),
				mqo.IntVal(rng.Int63n(1000) + 1),
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		cat.Add(&mqo.Table{
			Name: name,
			Cols: []mqo.ColDef{
				mqo.IntCol("id", rows),
				mqo.IntColRange("fk", rows, 1, rows),
				mqo.IntColRange("num", 1000, 1, 1000),
			},
			Rows: rows,
		})
	}

	// 2. One session handle owns catalog, cost model, plan cache and DB.
	opt, err := mqo.Open(cat, mqo.WithDB(db), mqo.WithPlanCache(16))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Two SQL queries sharing σ(num>=990)(R) ⋈ S; optimize the batch
	// with every strategy.
	const batch = `
		SELECT T.id, T.num FROM R, S, T
		WHERE R.num >= 990 AND R.fk = S.id AND S.fk = T.id;
		SELECT S.id, COUNT(*) AS n FROM R, S
		WHERE R.num >= 990 AND R.fk = S.id GROUP BY S.id`
	ctx := context.Background()
	for _, alg := range mqo.Algorithms() {
		res, err := opt.OptimizeSQL(ctx, batch, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11v estimated cost %8.3f s, materialized %d\n", alg, res.Cost, len(res.Materialized))
	}

	// 4. Optimize-and-execute the Greedy plan in one call. The second
	// optimization of the same batch is served from the plan cache.
	res, err := opt.Run(ctx, mqo.Batch{SQL: batch, Algorithm: mqo.Greedy})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGreedy plan:\n%s\n", res.Plan)
	fmt.Printf("executed: %d rows total, %d page reads, %d page writes, simulated %0.3f s\n",
		res.Exec.RowsOut, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime)
	for i, qr := range res.Queries {
		fmt.Printf("  query %d returned %d rows\n", i+1, len(qr.Rows))
	}
	fmt.Printf("plan cache: %+v\n", opt.CacheStats())
	// Output:
	// Volcano     estimated cost    0.419 s, materialized 0
	// Volcano-SH  estimated cost    0.291 s, materialized 1
	// Volcano-RU  estimated cost    0.291 s, materialized 1
	// Greedy      estimated cost    0.291 s, materialized 1
	//
	// Greedy plan:
	// Batch [node 0, any, rows 0] Batch
	//   Project [node 1, any, rows 50] Project
	//     BNLJoin [node 2, any, rows 50] Join[S.fk=T.id]
	//       Sort [node 24, sort:S.id, rows 50] MATERIALIZED
	//         BNLJoin [node 3, any, rows 50] Join[R.fk=S.id]
	//           Filter [node 4, any, rows 50] Select[990<=R.num]
	//             SeqScan [node 5, any, rows 5000] Scan(R)
	//           SeqScan [node 7, any, rows 5000] Scan(S)
	//       SeqScan [node 13, any, rows 5000] Scan(T)
	//   SortAgg [node 23, any, rows 50] Agg{S.id; count(…)}
	//     ↑shared node 24 (Sort)
	//
	// executed: 94 rows total, 1 page reads, 118 page writes, simulated 0.498 s
	//   query 1 returned 47 rows
	//   query 2 returned 47 rows
	// plan cache: {Hits:1 Misses:4 Entries:4 Cap:16}
}

// Batch reporting: the paper's Experiment 2 scenario. A nightly reporting
// job submits TPC-D queries Q3, Q5, Q7, Q9 and Q10 — each twice with
// different constants — as one batch. The example optimizes the batch with
// all four algorithms, shows where the savings come from (which
// subexpressions Greedy materializes), and executes both the No-MQO and
// MQO plans on generated data to compare measured I/O.
func ExampleOptimizer_OptimizeBatch() {
	const (
		batch = 3     // BQ3: Q3, Q5, Q7 twice each
		sf    = 0.005 // execution data scale
	)
	queries := tpcd.BatchQueries(batch)
	ctx := context.Background()

	// Optimization study at SF 1 statistics, as in the paper's Figure 8.
	study, err := mqo.Open(tpcd.Catalog(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch BQ%d: %d queries\n\n", batch, len(queries))
	for _, alg := range mqo.Algorithms() {
		res, err := study.OptimizeBatch(ctx, queries, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11v estimated cost %9.1f s\n", alg, res.Cost)
	}

	greedy, err := study.OptimizeBatch(ctx, queries, mqo.Greedy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nshared results Greedy materializes:")
	for _, m := range greedy.Materialized {
		// The plan node carries the cost; the DAG node's is the session's
		// scratch, rewritten by its next optimization of this batch.
		fmt.Printf("  node %d %-24s rows %.0f (compute %.1f s, write %.1f s, reuse %.1f s)\n",
			m.ID, m.Prop, m.LG.Rel.Rows, greedy.Plan.Node(m).Cost, m.MatCost, m.ReuseSeq)
	}

	// Execution comparison on generated data: a second session at the
	// execution scale, with a database attached.
	db := mqo.NewDB(512)
	if err := tpcd.LoadDB(db, sf, 42); err != nil {
		log.Fatal(err)
	}
	runner, err := mqo.Open(tpcd.Catalog(sf), mqo.WithDB(db))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuting at SF %g:\n", sf)
	for _, alg := range []mqo.Algorithm{mqo.Volcano, mqo.Greedy} {
		res, err := runner.Run(ctx, mqo.Batch{Queries: queries, Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11v reads=%5d writes=%5d simulated=%6.3f s queries=%d rows=%d\n",
			alg, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime, len(res.Queries), res.Exec.RowsOut)
	}
	// Output:
	// batch BQ3: 6 queries
	//
	// Volcano     estimated cost    2448.1 s
	// Volcano-SH  estimated cost    2447.4 s
	// Volcano-RU  estimated cost    2397.4 s
	// Greedy      estimated cost    2192.3 s
	//
	// shared results Greedy materializes:
	//   node 16 sort:orders.ock          rows 1500000 (compute 198.8 s, write 46.9 s, reuse 25.8 s)
	//   node 13 sort:customer.ck         rows 30000 (compute 2.3 s, write 0.8 s, reuse 0.4 s)
	//
	// executing at SF 0.005:
	//   Volcano     reads=  611 writes=  512 simulated= 3.495 s queries=6 rows=1421
	//   Greedy      reads=  611 writes=    0 simulated= 1.344 s queries=6 rows=1421
}

// Nested queries: the paper's §5 extension. TPC-D Q2 contains a correlated
// subquery — for each part, the minimum supply cost among suppliers of one
// region — which correlated evaluation invokes once per outer part. The
// parameter-independent part of the subquery (the partsupp ⋈ supplier ⋈
// nation ⋈ region join) is invariant across invocations; Greedy discovers
// it, materializes it (with a temporary index when the correlation
// predicate is an equality), and the per-invocation cost collapses.
//
// The example optimizes the correlated Q2, the decorrelated Q2-D, and the
// "not in" variant Q2-NI that defeats decorrelation and index access, then
// executes Q2 correlated on generated data with real parameter bindings
// (Batch.ParamSets).
func ExampleBatch() {
	ctx := context.Background()
	study, err := mqo.Open(tpcd.Catalog(1))
	if err != nil {
		log.Fatal(err)
	}

	show := func(label string, queries []*mqo.Query) {
		volcano, err := study.OptimizeBatch(ctx, queries, mqo.Volcano)
		if err != nil {
			log.Fatal(err)
		}
		greedy, err := study.OptimizeBatch(ctx, queries, mqo.Greedy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s Volcano %10.1f s   Greedy %9.1f s   (%.1fx, %d materialized)\n",
			label, volcano.Cost, greedy.Cost, volcano.Cost/greedy.Cost, len(greedy.Materialized))
		for _, m := range greedy.Materialized {
			fmt.Printf("       materialized: node %d %s rows=%.0f\n", m.ID, m.Prop, m.LG.Rel.Rows)
		}
	}
	fmt.Println("optimization at SF 1 statistics:")
	show("Q2", tpcd.Q2(1))
	show("Q2-D", tpcd.Q2D())
	show("Q2-NI", tpcd.Q2NI(1))

	// Correlated execution at a small scale, with one binding per outer
	// part key.
	const sf = 0.005
	db := mqo.NewDB(512)
	if err := tpcd.LoadDB(db, sf, 5); err != nil {
		log.Fatal(err)
	}
	k := tpcd.Q2Invocations(sf)
	sets := make([]map[string]mqo.Value, 0, k)
	for i := int64(1); i <= k; i++ {
		sets = append(sets, map[string]mqo.Value{"pk": mqo.IntVal(i)})
	}
	runner, err := mqo.Open(tpcd.Catalog(sf), mqo.WithDB(db))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncorrelated execution at SF %g (%d invocations):\n", sf, k)
	for _, alg := range []mqo.Algorithm{mqo.Volcano, mqo.Greedy} {
		res, err := runner.Run(ctx, mqo.Batch{
			Queries:   tpcd.Q2(sf),
			Algorithm: alg,
			ParamSets: sets,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8v reads=%5d writes=%5d simulated=%6.3f s\n",
			alg, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime)
	}
	// Output:
	// optimization at SF 1 statistics:
	// Q2     Volcano      209.1 s   Greedy     106.3 s   (2.0x, 1 materialized)
	//        materialized: node 41 ix:supplier.sk rows=2000
	// Q2-D   Volcano      129.8 s   Greedy     129.8 s   (1.0x, 0 materialized)
	// Q2-NI  Volcano   198575.4 s   Greedy    6671.1 s   (29.8x, 1 materialized)
	//        materialized: node 72 any rows=160000
	//
	// correlated execution at SF 0.005 (20 invocations):
	//   Volcano  reads=   84 writes=  542 simulated= 2.461 s
	//   Greedy   reads=   23 writes=   23 simulated= 0.147 s
}

// Result caching: the paper's §8 direction — keep materialized results of
// *past* queries so future ones can reuse them — as a real, row-backed
// store. A session opened with WithResultCache spools worthwhile executed
// results into the database's cache namespace; when a later batch's DAG
// contains a fingerprint-matched subexpression, the optimizer prices the
// spooled table as an already-materialized node and the executor answers
// by scanning it instead of recomputing. This example replays the same
// query sequence twice and shows the second pass running on cache hits:
// less page I/O, reinforced entries, and a bounded byte budget.
func ExampleWithResultCache() {
	const sf = 0.005
	db := mqo.NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		log.Fatal(err)
	}
	opt, err := mqo.Open(tpcd.Catalog(sf),
		mqo.WithDB(db),
		mqo.WithResultCache(16<<20, 0), // 16 MB of spooled results
	)
	if err != nil {
		log.Fatal(err)
	}
	defer opt.Close()

	sequence := []string{
		`SELECT nname, SUM(lprice) AS rev FROM lineitem, supplier, nation
		 WHERE lsk = sk AND snk = nk AND lship > 2000 GROUP BY nname`,
		`SELECT nname, COUNT(*) AS n FROM lineitem, supplier, nation
		 WHERE lsk = sk AND snk = nk AND lship > 2200 GROUP BY nname`,
		`SELECT MIN(lprice) AS lo, MAX(lprice) AS hi FROM lineitem`,
	}

	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ {
		fmt.Printf("pass %d\n", pass)
		for i, sql := range sequence {
			res, err := opt.Run(ctx, mqo.Batch{SQL: sql, Algorithm: mqo.Greedy})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  query %d: %3d rows, reads=%5d writes=%4d, est cost %8.2fs\n",
				i, res.Exec.RowsOut, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Cost)
		}
		st := opt.ResultCacheStats()
		fmt.Printf("  cache: %d entries, %d/%d bytes, hit-rate %.0f%%, admitted %d, evicted %d\n\n",
			st.Entries, st.UsedBytes, st.BudgetBytes, 100*st.HitRate(), st.Admissions, st.Evictions)
	}

	fmt.Println(opt.ResultCache())
	for _, e := range opt.ResultCache().Entries() {
		fmt.Printf("  entry table=%-6s prop=%-10s bytes=%8d hits=%d value=%.2f\n",
			e.Table, e.Prop, e.Bytes, e.Hits, e.Value)
	}
	// Output:
	// pass 1
	//   query 0:  23 rows, reads=    1 writes= 663, est cost     1.39s
	//   query 1:  23 rows, reads=    1 writes=   1, est cost     1.25s
	//   query 2:   1 rows, reads=    1 writes=   1, est cost     1.01s
	//   cache: 3 entries, 12288/16777216 bytes, hit-rate 0%, admitted 3, evicted 0
	//
	// pass 2
	//   query 0:  23 rows, reads=    0 writes=   0, est cost     0.01s
	//   query 1:  23 rows, reads=    0 writes=   0, est cost     0.01s
	//   query 2:   1 rows, reads=    0 writes=   0, est cost     0.01s
	//   cache: 3 entries, 12288/16777216 bytes, hit-rate 50%, admitted 3, evicted 0
	//
	// resultcache: 3 entries, 12288/16777216 bytes, gen 3
	//   entry table=rc1    prop=any        bytes=    4096 hits=1 value=2.74
	//   entry table=rc2    prop=any        bytes=    4096 hits=1 value=2.46
	//   entry table=rc3    prop=any        bytes=    4096 hits=1 value=1.99
}

// Scaleup: the paper's §6.2 experiment as a library scenario. The PSP
// workload grows from CQ1 (4 chain queries over 6 relations) to CQ5 (36
// chain queries over 22 relations, 144 join predicates); the example tracks
// how plan quality and the greedy instrumentation counters scale. Then the
// §6.3 ablations, each a session opened WithOptions, show what each of the
// three §4 optimizations that keep the greedy heuristic practical buys.
func ExampleWithOptions() {
	ctx := context.Background()
	cat := psp.Catalog(1)
	opt, err := mqo.Open(cat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("PSP scaleup (paper §6.2): CQi = 8i−4 five-relation chain queries")
	fmt.Printf("%-5s %10s %10s %10s %14s %14s\n",
		"", "volcano_s", "greedy_s", "saved_%", "propagations", "recomputations")
	for i := 1; i <= 5; i++ {
		queries := psp.CQ(i)
		volcano, err := opt.OptimizeBatch(ctx, queries, mqo.Volcano)
		if err != nil {
			log.Fatal(err)
		}
		greedy, err := opt.OptimizeBatch(ctx, queries, mqo.Greedy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("CQ%-3d %10.1f %10.1f %9.1f%% %14d %14d\n",
			i, volcano.Cost, greedy.Cost,
			100*(1-greedy.Cost/volcano.Cost),
			greedy.Stats.CostPropagations, greedy.Stats.CostRecomputations)
	}

	// The §6.3 ablations on CQ2: what each optimization buys. Each ablated
	// configuration is its own session over the shared catalog.
	session := func(g mqo.GreedyOptions) *mqo.Optimizer {
		s, err := mqo.Open(cat, mqo.WithOptions(mqo.Options{Greedy: g}))
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	cq2 := psp.CQ(2)
	run := func(s *mqo.Optimizer) *mqo.Result {
		res, err := s.OptimizeBatch(ctx, cq2, mqo.Greedy)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(opt)
	noMono := run(session(mqo.GreedyOptions{DisableMonotonicity: true}))
	noShar := run(session(mqo.GreedyOptions{DisableSharability: true}))
	noIncr := run(session(mqo.GreedyOptions{DisableIncremental: true}))
	fmt.Println("\nCQ2 ablations (all must produce the same plan cost):")
	fmt.Printf("  full greedy:          cost %.1f, %4d benefit recomputations\n",
		base.Cost, base.Stats.BenefitRecomputations)
	fmt.Printf("  no monotonicity:      cost %.1f, %4d benefit recomputations\n",
		noMono.Cost, noMono.Stats.BenefitRecomputations)
	fmt.Printf("  no sharability:       cost %.1f, %4d candidates (vs %d)\n",
		noShar.Cost, noShar.Stats.Candidates, base.Stats.Candidates)
	fmt.Printf("  no incremental:       cost %.1f\n", noIncr.Cost)
	// Output:
	// PSP scaleup (paper §6.2): CQi = 8i−4 five-relation chain queries
	//        volcano_s   greedy_s    saved_%   propagations recomputations
	// CQ1        159.3      140.6      11.8%           1702             86
	// CQ2        485.9      432.4      11.0%           5675            212
	// CQ3        852.6      750.0      12.0%           9653            341
	// CQ4       1327.2     1134.6      14.5%          14554            491
	// CQ5       1766.4     1493.7      15.4%          18419            622
	//
	// CQ2 ablations (all must produce the same plan cost):
	//   full greedy:          cost 432.4,  210 benefit recomputations
	//   no monotonicity:      cost 432.4,  489 benefit recomputations
	//   no sharability:       cost 432.4,  302 candidates (vs 164)
	//   no incremental:       cost 432.4
}

// The concurrent query service end to end. The micro-batching HTTP service
// runs over a small generated TPC-D instance, and eight concurrent clients
// play the part of production traffic, each POSTing one query. The batcher
// coalesces whatever lands in the same window into one
// multi-query-optimization batch, and every client gets its own rows back
// along with the batch's sharing report. Which requests share a window
// depends on timing, so the example prints the rows each client got and
// what the service's accounting must show whatever the windows were.
func ExampleServe() {
	const sf = 0.002
	const (
		sqlRevenue = `SELECT nname, SUM(lprice) AS rev FROM lineitem, supplier, nation
			WHERE lsk = sk AND snk = nk AND lship > 2000 GROUP BY nname`
		sqlCounts = `SELECT nname, COUNT(*) AS n FROM lineitem, supplier, nation
			WHERE lsk = sk AND snk = nk AND lship > 2200 GROUP BY nname`
	)

	// Server side: database, session optimizer, micro-batching service.
	db := mqo.NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		log.Fatal(err)
	}
	opt, err := mqo.Open(tpcd.Catalog(sf), mqo.WithDB(db), mqo.WithPlanCache(64))
	if err != nil {
		log.Fatal(err)
	}
	svc, err := mqo.Serve(opt, mqo.BatchingOptions{
		MaxBatch: 8,
		MaxWait:  50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(mqo.ServiceHandler(svc))
	defer srv.Close()

	// Client side: 8 concurrent requests, two query shapes that share
	// their lineitem ⋈ supplier ⋈ nation join.
	type reply struct {
		Columns []string        `json:"columns"`
		Rows    [][]interface{} `json:"rows"`
		Batch   mqo.BatchInfo   `json:"batch"` // size, shared and no-sharing cost
	}
	replies := make([]reply, 8)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := sqlRevenue
			if i%2 == 1 {
				sql = sqlCounts
			}
			body, _ := json.Marshal(map[string]string{"sql": sql})
			resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Printf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&replies[i]); err != nil {
				log.Printf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		fmt.Printf("client %d: %d rows of %v\n", i, len(r.Rows), r.Columns)
	}

	// The service's accounting, as GET /stats reports it.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Service   mqo.ServiceStats `json:"service"`
		PlanCache mqo.CacheStats   `json:"plan_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	s := stats.Service
	fmt.Printf("/stats: %d queries, shared cost at most the cost without sharing: %v\n",
		s.Queries, s.CostShared <= s.CostNoShare)
	// Output:
	// client 0: 16 rows of [nation.nname q.rev]
	// client 1: 16 rows of [nation.nname q.n]
	// client 2: 16 rows of [nation.nname q.rev]
	// client 3: 16 rows of [nation.nname q.n]
	// client 4: 16 rows of [nation.nname q.rev]
	// client 5: 16 rows of [nation.nname q.n]
	// client 6: 16 rows of [nation.nname q.rev]
	// client 7: 16 rows of [nation.nname q.n]
	// /stats: 8 queries, shared cost at most the cost without sharing: true
}

// Star Schema Benchmark: deterministic generated data, the 13 queries in
// 4 flights, and the two reuse modes the star shape creates. Each flight
// is optimized as one MQO batch (its queries share the lineorder scan and
// dimension joins), then a drill-down session — the flight-2 report
// refined brand by brand — replays against the result cache, so later
// steps and the replay pass answer shared subplans from spooled tables
// instead of recomputing the star join.
func ExampleOptimizer_Run_starSchema() {
	const sf = 0.005
	db := mqo.NewDB(1024)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		log.Fatal(err)
	}
	opt, err := mqo.Open(ssb.Catalog(sf),
		mqo.WithDB(db),
		mqo.WithResultCache(16<<20, 0), // 16 MB of spooled results
	)
	if err != nil {
		log.Fatal(err)
	}
	defer opt.Close()
	ctx := context.Background()

	// Part 1: each flight as one MQO batch. The sharing heuristics price
	// the common star subplans once; no_share is the Volcano baseline.
	fmt.Println("== flights as MQO batches ==")
	for n := 1; n <= ssb.NumFlights; n++ {
		shared, err := opt.Run(ctx, mqo.Batch{SQL: ssb.FlightSQL(n), Algorithm: mqo.Greedy})
		if err != nil {
			log.Fatal(err)
		}
		baseline, err := opt.OptimizeSQL(ctx, ssb.FlightSQL(n), mqo.Volcano)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  flight %d: %d queries, est cost %7.2fs (no sharing %7.2fs), reads=%5d\n",
			n, len(shared.Queries), shared.Cost, baseline.Cost, shared.Exec.IO.Reads)
	}

	// Part 2: hierarchical drill-down reuse. The same report tightened
	// step by step (manufacturer → category → brand range → brand), run
	// twice: the second pass answers from the result cache.
	fmt.Println("\n== flight-2 drill-down, replayed ==")
	for pass := 1; pass <= 2; pass++ {
		fmt.Printf("pass %d\n", pass)
		for step, sql := range ssb.DrillDownSQL(2, ssb.MaxDrillSteps) {
			res, err := opt.Run(ctx, mqo.Batch{SQL: sql, Algorithm: mqo.Greedy})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  step %d: %3d rows, reads=%5d writes=%4d\n",
				step+1, res.Exec.RowsOut, res.Exec.IO.Reads, res.Exec.IO.Writes)
		}
		st := opt.ResultCacheStats()
		fmt.Printf("  cache: %d entries, %d/%d bytes, hit-rate %.0f%%, admitted %d, evicted %d\n",
			st.Entries, st.UsedBytes, st.BudgetBytes, 100*st.HitRate(), st.Admissions, st.Evictions)
	}
	// Output:
	// == flights as MQO batches ==
	//   flight 1: 3 queries, est cost    4.54s (no sharing    4.54s), reads=    3
	//   flight 2: 3 queries, est cost    4.75s (no sharing    4.75s), reads=   23
	//   flight 3: 4 queries, est cost    5.08s (no sharing    6.40s), reads=   11
	//   flight 4: 3 queries, est cost    3.38s (no sharing    4.86s), reads=   83
	//
	// == flight-2 drill-down, replayed ==
	// pass 1
	//   step 1: 799 rows, reads=    7 writes=   7
	//   step 2: 132 rows, reads=    2 writes=   2
	//   step 3:  21 rows, reads=    1 writes=   1
	//   step 4:   7 rows, reads=    1 writes=   1
	//   cache: 18 entries, 425984/16777216 bytes, hit-rate 0%, admitted 18, evicted 0
	// pass 2
	//   step 1: 799 rows, reads=    0 writes=   0
	//   step 2: 132 rows, reads=    0 writes=   0
	//   step 3:  21 rows, reads=    0 writes=   0
	//   step 4:   7 rows, reads=    0 writes=   0
	//   cache: 18 entries, 425984/16777216 bytes, hit-rate 33%, admitted 18, evicted 0
}

package mqo

import (
	"context"
	"testing"

	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// resultCacheWorld boots a served session over freshly generated TPC-D
// data: identical data for every call, so cache-on and cache-off services
// are comparable row-for-row.
func resultCacheWorld(t *testing.T, sf float64, opts ...Option) (*Optimizer, *Service) {
	t.Helper()
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), append([]Option{WithDB(db)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Serve(opt, BatchingOptions{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return opt, svc
}

// TestServeResultCacheEndToEnd is the acceptance test for the row-backed
// result cache on the serving path: the same query sequence driven through
// mqo.Serve twice with WithResultCache must (a) execute the second pass
// with strictly lower measured I/O, answered via real cache-table scans;
// (b) return rows byte-identical to a cache-off service over the same
// data; and (c) under a tightened byte budget, actually drop the spooled
// tables from storage.
func TestServeResultCacheEndToEnd(t *testing.T) {
	const sf = 0.002
	sequence := []string{sqlRevenue, sqlCounts, sqlBatch}
	ctx := context.Background()

	runPass := func(svc *Service) (reads, writes int64, hits int, rows [][]Row) {
		t.Helper()
		for _, sql := range sequence {
			queries, err := svc.opt.ParseSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			var batchRows []Row
			for _, q := range queries {
				ans, err := svc.SubmitQuery(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				reads += ans.Batch.Exec.IO.Reads
				writes += ans.Batch.Exec.IO.Writes
				hits += ans.Batch.ResultCacheHits
				batchRows = append(batchRows, ans.Query.Rows...)
			}
			rows = append(rows, batchRows)
		}
		return reads, writes, hits, rows
	}

	opt, cached := resultCacheWorld(t, sf, WithPlanCache(16), WithResultCache(16<<20, 0))
	reads1, _, _, rows1 := runPass(cached)
	reads2, writes2, hits2, rows2 := runPass(cached)

	// (a) Second pass strictly cheaper, and cheap *because of* cache-table
	// scans (the batches report spooled-table reads).
	if reads2 >= reads1 {
		t.Errorf("second pass reads %d not strictly below first pass %d", reads2, reads1)
	}
	if hits2 == 0 {
		t.Error("second pass reported no result-cache table reads")
	}
	if writes2 != 0 {
		t.Errorf("second pass wrote %d pages; expected pure cache reads", writes2)
	}
	st := opt.ResultCacheStats()
	if st.Admissions == 0 || st.HitBatches == 0 {
		t.Errorf("store recorded no traffic: %+v", st)
	}

	// (b) Cache-on results byte-identical to a cache-off service over the
	// same generated data, row for row, both passes.
	_, plain := resultCacheWorld(t, sf)
	_, _, _, prows1 := runPass(plain)
	for pi, pass := range [][][]Row{rows1, rows2} {
		for bi := range pass {
			if len(pass[bi]) != len(prows1[bi]) {
				t.Fatalf("pass %d batch %d: %d rows with cache vs %d without",
					pi+1, bi, len(pass[bi]), len(prows1[bi]))
			}
			for ri := range pass[bi] {
				for ci := range pass[bi][ri] {
					if pass[bi][ri][ci].String() != prows1[bi][ri][ci].String() {
						t.Fatalf("pass %d batch %d row %d col %d: %v with cache vs %v without",
							pi+1, bi, ri, ci, pass[bi][ri][ci], prows1[bi][ri][ci])
					}
				}
			}
		}
	}

	// (c) Eviction under a tight byte budget drops the spooled tables from
	// storage, not just from the accounting.
	db := opt.DB()
	tablesBefore := db.NumCaches()
	if tablesBefore == 0 {
		t.Fatal("no spooled tables to evict")
	}
	names := db.CacheNames()
	opt.ResultCache().SetBudgets(4096, 0) // one page: at most one entry survives
	stAfter := opt.ResultCacheStats()
	if stAfter.Evictions == 0 {
		t.Fatal("tight budget triggered no evictions")
	}
	if got := db.NumCaches(); got >= tablesBefore || int64(got)*4096 > 4096 {
		t.Errorf("storage still holds %d spooled tables (was %d)", got, tablesBefore)
	}
	if stAfter.UsedBytes > 4096 {
		t.Errorf("store over tightened budget: %+v", stAfter)
	}
	dropped := 0
	for _, name := range names {
		if _, err := db.Cache(name); err != nil {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("no spooled table was actually dropped from storage")
	}

	// The service keeps answering correctly after eviction: stale plans
	// cannot reference dropped tables (generation-keyed plan cache), and
	// recomputation still returns the same rows.
	_, _, _, rows3 := runPass(cached)
	for bi := range rows3 {
		if len(rows3[bi]) != len(rows1[bi]) {
			t.Fatalf("post-eviction batch %d: %d rows, want %d", bi, len(rows3[bi]), len(rows1[bi]))
		}
	}
}

// TestSavedCostIndependentOfPlanCache: what the result cache reports saved
// is what the executed plans read, whether a plan was optimized for the
// batch or served from the plan cache. One sequence of Runs — the SSB
// flights and flight 1's and 4's drill-downs a query at a time, replayed,
// under a RAM budget smaller than what they spool, so entries move to the
// warm tier and back — on a session with a plan cache and on one without
// gives the same hits, warm hits and estimated saving.
func TestSavedCostIndependentOfPlanCache(t *testing.T) {
	const sf = 0.002
	db := NewDB(256)
	if err := ssb.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	var seq [][]*Query
	for f := 1; f <= 4; f++ {
		seq = append(seq, ssb.Flight(f))
	}
	for _, f := range []int{1, 4} {
		seq = append(seq, ssb.DrillDown(f, ssb.MaxDrillSteps)...)
	}
	replay := func(planCache int) ResultCacheStats {
		opt, err := Open(ssb.Catalog(sf), WithDB(db), WithPlanCache(planCache), WithResultCache(64<<10, 16<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer opt.Close()
		for pass := 0; pass < 3; pass++ {
			for _, queries := range seq {
				if _, err := opt.Run(context.Background(), Batch{Queries: queries, Algorithm: Greedy}); err != nil {
					t.Fatal(err)
				}
				opt.ResultCache().WaitPromotions()
			}
		}
		if st := opt.CacheStats(); planCache > 0 && st.Hits == 0 {
			t.Errorf("the plan cache never hit: %+v", st)
		}
		return opt.ResultCacheStats()
	}
	cached, fresh := replay(128), replay(0)
	if cached.Hits == 0 || cached.WarmHits == 0 {
		t.Errorf("the replay never hit the warm tier: %+v", cached)
	}
	if cached.Hits != fresh.Hits || cached.WarmHits != fresh.WarmHits || cached.SavedCostEst != fresh.SavedCostEst {
		t.Errorf("with a plan cache: %d hits, %d warm, %v s saved; without: %d, %d, %v s",
			cached.Hits, cached.WarmHits, cached.SavedCostEst, fresh.Hits, fresh.WarmHits, fresh.SavedCostEst)
	}
}

package mqo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqo/internal/tpcd"
)

const (
	sqlRevenue = `SELECT nname, SUM(lprice) AS rev FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 2000 GROUP BY nname`
	sqlCounts = `SELECT nname, COUNT(*) AS n FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 2200 GROUP BY nname`
	sqlBatch = sqlRevenue + ";" + sqlCounts
)

// TestConcurrentOptimize hammers one session handle from many goroutines
// mixing OptimizeBatch and OptimizeSQL (run under -race in CI): every call
// must succeed and produce the same cost as a serial run.
func TestConcurrentOptimize(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := opt.OptimizeSQL(ctx, sqlBatch, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := opt.ParseSQL(sqlBatch)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var res *Result
				var err error
				alg := Algorithms()[(g+i)%4]
				if i%2 == 0 {
					res, err = opt.OptimizeSQL(ctx, sqlBatch, alg)
				} else {
					res, err = opt.OptimizeBatch(ctx, queries, alg)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v: %v", g, alg, err)
					return
				}
				if alg == Greedy && res.Cost != want.Cost {
					errs <- fmt.Errorf("goroutine %d: greedy cost %f, serial run got %f", g, res.Cost, want.Cost)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countdownCtx reports cancellation after Err has been polled n times,
// triggering it deterministically inside the optimizer's main loop.
type countdownCtx struct {
	context.Context
	n int32
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt32(&c.n, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestOptimizeCancellation: a cancelled context aborts a Greedy run with
// context.Canceled — both when cancelled up front and mid-greedy-loop.
func TestOptimizeCancellation(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1))
	if err != nil {
		t.Fatal(err)
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := opt.OptimizeSQL(pre, sqlBatch, Greedy); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled: got %v, want context.Canceled", err)
	}
	// Survive the OptimizeBatch and core.Optimize entry checkpoints, then
	// cancel at the first poll inside the greedy pick loop.
	mid := &countdownCtx{Context: context.Background(), n: 2}
	if _, err := opt.OptimizeSQL(mid, sqlBatch, Greedy); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-loop: got %v, want context.Canceled", err)
	}
}

// TestPlanCacheAccounting checks hit/miss bookkeeping: identical batches
// (even parsed from separate SQL strings) hit; different algorithms or
// different queries miss; eviction respects the capacity and drops the least
// recently used plan. A composition's plans sit in one memo entry, beside
// its DAG.
func TestPlanCacheAccounting(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1), WithPlanCache(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := opt.OptimizeSQL(ctx, sqlBatch, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	second, err := opt.OptimizeSQL(ctx, sqlBatch, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	// A hit serves the cached plan through a defensive copy: the Result
	// struct and its top-level slices are fresh per caller, but the plan
	// root (and every plan node) is the shared cached one.
	if first == second {
		t.Error("cache hit returned the cached *Result itself, want a defensive copy")
	}
	if first.Plan.Root != second.Plan.Root {
		t.Error("identical batch was not served from the plan cache")
	}
	if first.Cost != second.Cost || first.NoShareCost != second.NoShareCost {
		t.Errorf("copy diverges: %+v vs %+v", first, second)
	}
	// One hitter mutating its slices must not corrupt another hit.
	second.Materialized = append(second.Materialized, nil)
	second.Plan.Mats = append(second.Plan.Mats, nil)
	third, err := opt.OptimizeSQL(ctx, sqlBatch, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Materialized) != len(first.Materialized) || len(third.Plan.Mats) != len(first.Plan.Mats) {
		t.Error("a caller's append leaked into a later cache hit")
	}
	if s := opt.CacheStats(); s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("after repeats: stats %+v, want 2 hits / 1 miss / 1 entry", s)
	}

	if _, err := opt.OptimizeSQL(ctx, sqlBatch, VolcanoSH); err != nil {
		t.Fatal(err)
	}
	if s := opt.CacheStats(); s.Hits != 2 || s.Misses != 2 {
		t.Errorf("different algorithm should miss: stats %+v", s)
	}
	queries, err := opt.ParseSQL(sqlBatch)
	if err != nil {
		t.Fatal(err)
	}
	trees := opt.stmts.treesKey(queries)
	opt.memo.mu.Lock()
	ent := opt.memo.entries[trees]
	if len(opt.memo.entries) != 1 || len(ent.plans) != 2 || ent.ld == nil {
		t.Errorf("%d memo entries, want one holding both plans and the DAG", len(opt.memo.entries))
	}
	opt.memo.mu.Unlock()

	// A third distinct plan evicts the least recently used one (cap 2): the
	// Greedy plan, hit before the Volcano-SH one was put.
	if _, err := opt.OptimizeSQL(ctx, sqlRevenue, Greedy); err != nil {
		t.Fatal(err)
	}
	if s := opt.CacheStats(); s.Entries != 2 || s.Cap != 2 {
		t.Errorf("eviction: stats %+v, want 2 entries at cap 2", s)
	}
	for _, c := range []struct {
		alg  Algorithm
		kept bool
	}{{Greedy, false}, {VolcanoSH, true}} {
		if found, _ := opt.memo.peek([]byte(trees), planKey{alg: c.alg}); found != c.kept {
			t.Errorf("%v plan of the batch kept %v after eviction, want %v", c.alg, found, c.kept)
		}
	}

	// The cacheless session reports zeroes and still optimizes.
	plain, err := Open(tpcd.Catalog(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.OptimizeSQL(ctx, sqlRevenue, Greedy); err != nil {
		t.Fatal(err)
	}
	if s := plain.CacheStats(); s != (CacheStats{}) {
		t.Errorf("disabled cache reported %+v", s)
	}
}

// TestMemoKeys pins the memo's keys. A composition is its queries' trees as
// written: equal trees give equal keys, whichever string they were parsed
// from, and the key needs no DAG. A plan is keyed by its algorithm — every
// one, and one there is no such — and, planned against a result-cache store,
// by its parameter bindings: none, one empty binding and two bindings are
// three keys, and without a store to arm them against bindings change no
// plan. The session's options are in no key: they are fixed at Open.
func TestMemoKeys(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1), WithPlanCache(2),
		WithOptions(Options{Greedy: GreedyOptions{SpaceBudgetBytes: 1 << 20}}))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := opt.ParseSQL(sqlBatch)
	if err != nil {
		t.Fatal(err)
	}
	again, err := opt.ParseSQL(sqlBatch)
	if err != nil {
		t.Fatal(err)
	}
	trees := queries[0].Fingerprint() + ";" + queries[1].Fingerprint()
	if got := opt.stmts.treesKey(queries); got != trees {
		t.Errorf("trees key %q, want %q", got, trees)
	}
	if got := opt.stmts.treesKey(again); got != trees {
		t.Errorf("the same text parsed again: trees key %q, want %q", got, trees)
	}
	if queries[0].Fingerprint() == queries[1].Fingerprint() {
		t.Error("two different queries render the same tree fingerprint")
	}

	binds := []map[string]Value{{"p": IntVal(1)}, {"p": IntVal(2)}}
	for _, alg := range append(Algorithms(), Algorithm(-1), Algorithm(len(Algorithms()))) {
		if got, want := newPlanKey(alg, nil, binds), (planKey{alg: alg}); got != want {
			t.Errorf("%v, no store: key %+v, want %+v", alg, got, want)
		}
	}
	store := new(ResultCache)
	keys := map[planKey]bool{}
	for _, c := range []struct {
		binds []map[string]Value
		want  string
	}{{nil, ""}, {[]map[string]Value{{}}, ";"}, {binds, "p=1;p=2;"}} {
		k := newPlanKey(Greedy, store, c.binds)
		if want := (planKey{alg: Greedy, stored: true, binds: c.want}); k != want {
			t.Errorf("%d bindings against a store: key %+v, want %+v", len(c.binds), k, want)
		}
		keys[k] = true
	}
	if len(keys) != 3 {
		t.Errorf("three binding sets gave %d keys, want 3", len(keys))
	}

	// The session's options are fixed, and a repeat hits under them.
	ctx := context.Background()
	for range 2 {
		if _, err := opt.OptimizeBatch(ctx, again, Greedy); err != nil {
			t.Fatal(err)
		}
	}
	if s := opt.CacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("a repeated batch: stats %+v, want 1 hit and 1 miss", s)
	}
}

// TestRunSQL goes the whole way: SQL text in, executed rows out, on a
// small generated TPC-D instance.
func TestRunSQL(t *testing.T) {
	const sf = 0.002
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run(context.Background(), Batch{SQL: sqlBatch, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 2 {
		t.Fatalf("got %d query results, want 2", len(res.Queries))
	}
	if res.Exec.RowsOut == 0 || len(res.Queries[0].Rows) == 0 {
		t.Error("executed batch returned no rows")
	}
	if res.Cost <= 0 {
		t.Error("missing optimization result in ExecResult")
	}
}

// TestRunConcurrent launches several goroutines through Run on one handle;
// execution is serialized internally, results must match.
func TestRunConcurrent(t *testing.T) {
	const sf = 0.002
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Run(context.Background(), Batch{SQL: sqlRevenue, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := opt.Run(context.Background(), Batch{SQL: sqlRevenue, Algorithm: Greedy})
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %v", g, err)
				return
			}
			if len(res.Queries[0].Rows) != len(want.Queries[0].Rows) {
				errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, len(res.Queries[0].Rows), len(want.Queries[0].Rows))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunErrors: Run without a database, and Batch with nothing to run.
func TestRunErrors(t *testing.T) {
	opt, err := Open(tpcd.Catalog(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Run(context.Background(), Batch{SQL: sqlRevenue}); err == nil {
		t.Error("Run without WithDB should fail")
	}
	withDB, err := Open(tpcd.Catalog(1), WithDB(NewDB(64)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := withDB.Run(context.Background(), Batch{}); err == nil {
		t.Error("Run with an empty batch should fail")
	}
	queries, err := withDB.ParseSQL(sqlRevenue)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := withDB.Run(context.Background(), Batch{SQL: sqlCounts, Queries: queries}); err == nil {
		t.Error("Run with both SQL and Queries set should fail")
	}
	if _, err := Open(nil); err == nil {
		t.Error("Open(nil) should fail")
	}
}

// TestResultCacheSession: a session opened with WithResultCache spools a
// query's result on the first run and answers the repeat from the spooled
// table — estimated cost and measured page reads both drop, and the store
// reports the hit.
func TestResultCacheSession(t *testing.T) {
	const sf = 0.002
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithResultCache(16<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := opt.Run(ctx, Batch{SQL: sqlRevenue, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	second, err := opt.Run(ctx, Batch{SQL: sqlRevenue, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if second.Exec.IO.Reads >= first.Exec.IO.Reads {
		t.Errorf("repeat run reads %d not below first run reads %d",
			second.Exec.IO.Reads, first.Exec.IO.Reads)
	}
	if second.Cost >= first.Cost {
		t.Errorf("repeat run estimated cost %f not below first %f", second.Cost, first.Cost)
	}
	if len(second.Queries[0].Rows) != len(first.Queries[0].Rows) {
		t.Fatalf("row count changed across cache hit: %d vs %d",
			len(second.Queries[0].Rows), len(first.Queries[0].Rows))
	}
	st := opt.ResultCacheStats()
	if st.Admissions == 0 || st.Hits == 0 || st.HitBatches == 0 {
		t.Errorf("stats did not record the hit: %+v", st)
	}
	if st.UsedBytes <= 0 || st.UsedBytes > st.BudgetBytes {
		t.Errorf("byte accounting out of range: %+v", st)
	}

	// Re-configuring the session's cache with a different budget resizes
	// the existing store rather than silently keeping the old budget.
	if err := opt.ensureResultCache(8<<20, 0); err != nil {
		t.Fatal(err)
	}
	if got := opt.ResultCache().Budget(); got != 8<<20 {
		t.Errorf("budget not resized: %d", got)
	}

	// WithResultCache without a database must fail at Open.
	if _, err := Open(tpcd.Catalog(sf), WithResultCache(1<<20, 0)); err == nil {
		t.Error("WithResultCache without WithDB should fail")
	}
}

// TestPlanCacheHitReportsItsOwnOptTime: a Result served from the plan cache,
// by OptimizeBatch or by Run, reports the serving call's own optimize phase
// as Stats.OptTime, not the time of the search that built the plan. Its
// other Stats are that search's, and the cached Result is left as it was.
func TestPlanCacheHitReportsItsOwnOptTime(t *testing.T) {
	const sf = 0.0005
	db := NewDB(256)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries, err := opt.ParseSQL(sqlBatch)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := opt.OptimizeBatch(ctx, queries, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	// The cached plan's search took an hour, as far as a copy of it can tell.
	const search = time.Hour
	opt.memo.mu.Lock()
	cached := opt.memo.entries[opt.stmts.treesKey(queries)].plans[planKey{alg: Greedy}].res
	cached.Stats.OptTime = search
	opt.memo.mu.Unlock()

	check := func(call string, st Stats) {
		t.Helper()
		if st.OptTime <= 0 || st.OptTime >= search {
			t.Errorf("%s: a plan-cache hit reports an optimization time of %v", call, st.OptTime)
		}
		st.OptTime = miss.Stats.OptTime
		if !reflect.DeepEqual(st, miss.Stats) {
			t.Errorf("%s: a plan-cache hit reports %+v, the search that built the plan %+v", call, st, miss.Stats)
		}
	}
	hit, err := opt.OptimizeBatch(ctx, queries, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	check("OptimizeBatch", hit.Stats)
	ran, err := opt.Run(ctx, Batch{Queries: queries, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	check("Run", ran.Stats)
	if s := opt.CacheStats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("plan cache %+v, want 2 hits and 1 miss", s)
	}
	if cached.Stats.OptTime != search {
		t.Errorf("the cached Result's optimization time became %v", cached.Stats.OptTime)
	}
}

package mqo

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mqo/internal/exec"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// resultShape is what a caller can see of a Result without reading its plan
// nodes: the cost and the sizes of the containers that are the caller's own.
type resultShape struct {
	cost                      float64
	mats, materialized, nodes int
}

func shapeOf(res *Result) resultShape {
	return resultShape{float64(res.Cost), len(res.Plan.Mats), len(res.Materialized), len(res.Plan.Nodes)}
}

// scribble is a hostile caller: it reorders and grows the Result's top-level
// slices, shortens its Plan's view of the plan-node array and overwrites its
// cost — everything the contract says is the caller's own: the Result and
// Plan structs and the Mats and Materialized slices are copies, the plan
// nodes are shared. It grows Plan.Mats only with the plan's own nodes, so a
// plan that wrongly shared it still executes.
func scribble(res *Result) {
	slices.Reverse(res.Materialized)
	res.Materialized = append(res.Materialized, nil)
	slices.Reverse(res.Plan.Mats)
	res.Plan.Mats = append(res.Plan.Mats, res.Plan.Mats...)
	res.Plan.Nodes = res.Plan.Nodes[:len(res.Plan.Nodes)-1]
	res.Cost = -1
}

// TestPlanCacheDefensiveCopiesUnderMutation: every Result the plan cache
// holds reaches a caller outside the session as a defensive copy — a hit's,
// and the miss's that cached it. Concurrent callers scribbling on the
// top-level containers (Result.Materialized, Plan.Mats, the Plan struct) and the
// cost must not corrupt each other's view or the stored entry (run under
// -race in CI). Plan *nodes* stay shared and read-only. OptimizeSQL is checked
// on an optimize-only session; Run on a session with a database, a plan cache
// and a result cache, where the plan cached is one that reads the answers from
// the store, and every run's rows must stay the first run's.
func TestPlanCacheDefensiveCopiesUnderMutation(t *testing.T) {
	ctx := context.Background()
	hammer := func(t *testing.T, want resultShape, call func() (*Result, error)) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					res, err := call()
					if err != nil {
						t.Error(err)
						return
					}
					if got := shapeOf(res); got != want {
						t.Errorf("a hit observed a mutated copy: %+v, want %+v", got, want)
						return
					}
					scribble(res)
				}
			}()
		}
		wg.Wait()
		res, err := call()
		if err != nil {
			t.Fatal(err)
		}
		if got := shapeOf(res); got != want {
			t.Errorf("stored entry corrupted: %+v, want %+v", got, want)
		}
	}

	t.Run("optimize", func(t *testing.T) {
		opt, err := Open(tpcd.Catalog(1), WithPlanCache(8))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := opt.OptimizeSQL(ctx, sqlBatch, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		want := shapeOf(ref)
		scribble(ref) // the miss that cached the plan
		hammer(t, want, func() (*Result, error) { return opt.OptimizeSQL(ctx, sqlBatch, Greedy) })
		if st := opt.CacheStats(); st.Hits == 0 {
			t.Error("no plan-cache hits recorded, test exercised nothing")
		}
	})

	t.Run("run", func(t *testing.T) {
		const sf = 0.002
		db := NewDB(1024)
		if err := tpcd.LoadDB(db, sf, 1); err != nil {
			t.Fatal(err)
		}
		opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(8), WithResultCache(16<<20, 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(opt.Close)
		first, err := opt.Run(ctx, Batch{SQL: sqlBatch, Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		run := func() (*Result, error) {
			res, err := opt.Run(ctx, Batch{SQL: sqlBatch, Algorithm: Greedy})
			if err != nil {
				return nil, err
			}
			for i := range res.Queries {
				if !exec.EqualRows(res.Queries[i], first.Queries[i], 1e-9) {
					return nil, fmt.Errorf("query %d: %d rows differ from the first run's %d",
						i, len(res.Queries[i].Rows), len(first.Queries[i].Rows))
				}
			}
			return res.Result, nil
		}
		// The first run spooled its answers, so its plan was not cached; the
		// next reads them from the store and is the miss that caches its plan.
		before := opt.CacheStats()
		put, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if st := opt.CacheStats(); st.Entries != before.Entries+1 || st.Misses != before.Misses+1 {
			t.Fatalf("the second run did not cache its plan: plan cache %+v, then %+v", before, st)
		}
		want := shapeOf(put)
		scribble(put)
		hits := opt.CacheStats().Hits
		hammer(t, want, run)
		if st := opt.CacheStats(); st.Hits < hits+8*20 {
			t.Errorf("plan cache %+v: want every hammering run a hit", st)
		}
	})
}

// TestPlanCacheWithResultCache: plan-cache hits must interact correctly
// with the result cache — a cached plan's spooled tables are pinned for the
// run, and results stay correct across admissions, which bump the store's
// generation (what that does to a cached plan is TestPlanCacheValidity's).
func TestPlanCacheWithResultCache(t *testing.T) {
	const sf = 0.002
	db := NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(tpcd.Catalog(sf), WithDB(db), WithPlanCache(16), WithResultCache(16<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	run := func(sql string) *ExecResult {
		t.Helper()
		res, err := opt.Run(ctx, Batch{SQL: sql, Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(sqlRevenue) // spools: the commit bumps the generation, so the plan is not cached
	second := run(sqlRevenue)
	if second.Exec.IO.Reads >= first.Exec.IO.Reads {
		t.Errorf("second run reads %d not below first %d", second.Exec.IO.Reads, first.Exec.IO.Reads)
	}
	// Steady state: the second run armed hits and spooled nothing new, so
	// its plan is cacheable; the third run should be a plan-cache hit at
	// the same generation with identical rows.
	before := opt.CacheStats()
	third := run(sqlRevenue)
	after := opt.CacheStats()
	if after.Hits <= before.Hits {
		t.Error("steady-state repeat was not a plan-cache hit")
	}
	if len(third.Queries[0].Rows) != len(second.Queries[0].Rows) {
		t.Fatalf("plan-cache hit changed the result: %d vs %d rows",
			len(third.Queries[0].Rows), len(second.Queries[0].Rows))
	}

	// A different query admits new entries → generation bumps; the repeat
	// after it — a plan that only reads the stored answer, so still good —
	// answers from the cache all the same.
	genBefore := opt.ResultCacheStats().Generation
	run(sqlCounts)
	if gen := opt.ResultCacheStats().Generation; gen == genBefore {
		t.Skip("counts query admitted nothing; generation unchanged")
	}
	fourth := run(sqlRevenue)
	if len(fourth.Queries[0].Rows) != len(second.Queries[0].Rows) {
		t.Fatalf("post-admission repeat changed the result: %d vs %d rows",
			len(fourth.Queries[0].Rows), len(second.Queries[0].Rows))
	}
	if fourth.Exec.IO.Reads > first.Exec.IO.Reads {
		t.Errorf("post-admission repeat reads %d exceed cold reads %d",
			fourth.Exec.IO.Reads, first.Exec.IO.Reads)
	}
	if st := opt.ResultCacheStats(); st.HitBatches < 2 {
		t.Errorf("expected repeated hits, stats: %+v", st)
	}
}

// TestPlanCacheValidity walks a cached plan's life against the result cache.
// A plan that only reads stored answers outlives a generation bump and is a
// hit for as long as its table is there; when the table goes the probe is a
// miss and the entry is dropped, not left squatting in the LRU. A plan that
// computes anything is a hit at the generation it was planned at and not
// after it, parameterized plans included. (That a plan pinned while one of
// its residual bindings has turned ready is refused is the store's own rule,
// cache.TestPinPlanRevalidatesBindings: a binding only turns ready through an
// admission, which moves the generation first.)
func TestPlanCacheValidity(t *testing.T) {
	const ample = 16 << 20
	ctx := context.Background()
	open := func(cat *Catalog, load func(*DB, float64, int64) error, sf float64) (*Optimizer, func(Batch) bool) {
		t.Helper()
		db := NewDB(1024)
		if err := load(db, sf, 1); err != nil {
			t.Fatal(err)
		}
		opt, err := Open(cat, WithDB(db), WithPlanCache(16), WithResultCache(ample, 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(opt.Close)
		// run executes the batch, checks its rows against the reference and
		// reports whether its plan came from the plan cache.
		return opt, func(b Batch) bool {
			t.Helper()
			before := opt.CacheStats()
			b.Algorithm = Greedy
			res, err := opt.Run(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			queries := b.Queries
			if b.SQL != "" {
				if queries, err = opt.ParseSQL(b.SQL); err != nil {
					t.Fatal(err)
				}
			}
			for i, q := range queries {
				rows, schema, err := exec.Reference(db, q, &exec.Env{ParamSets: b.ParamSets})
				if err != nil {
					t.Fatal(err)
				}
				if !exec.EqualRows(res.Queries[i], QueryResult{Schema: schema, Rows: rows}, 1e-9) {
					t.Fatalf("query %d: %d rows differ from the reference's %d", i, len(res.Queries[i].Rows), len(rows))
				}
			}
			after := opt.CacheStats()
			if after.Hits+after.Misses != before.Hits+before.Misses+1 {
				t.Fatalf("one batch moved the plan cache from %+v to %+v", before, after)
			}
			return after.Hits > before.Hits
		}
	}
	bump := func(opt *Optimizer, what string, do func()) {
		t.Helper()
		gen := opt.ResultCache().Generation()
		do()
		if opt.ResultCache().Generation() == gen {
			t.Fatalf("%s left the generation at %d", what, gen)
		}
	}

	opt, run := open(tpcd.Catalog(0.002), tpcd.LoadDB, 0.002)
	store := opt.ResultCache()
	entry := func(sql string) (found, stored bool) {
		t.Helper()
		queries, err := opt.ParseSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return opt.memo.peek([]byte(opt.stmts.treesKey(queries)), planKey{alg: Greedy, stored: true})
	}

	// A stored answer: spooled by the first run, read by the second, whose
	// plan is cached as reading only that.
	run(Batch{SQL: sqlRevenue})
	if run(Batch{SQL: sqlRevenue}) {
		t.Error("the plan of a batch that spooled was cached")
	}
	if found, stored := entry(sqlRevenue); !found || !stored {
		t.Fatalf("after its answer was read from the store: entry found=%v stored=%v, want both", found, stored)
	}
	bump(opt, "admitting another query's results", func() { run(Batch{SQL: sqlCounts}) })
	if !run(Batch{SQL: sqlRevenue}) {
		t.Error("a plan that only reads a stored answer did not survive a generation bump")
	}
	// Its table goes: a miss, and the entry with it (the re-optimized plan
	// spools the answer again, so nothing takes the entry's place).
	bump(opt, "shrinking the budget to nothing", func() { store.SetBudgets(1, 0) })
	store.SetBudgets(ample, 0)
	if run(Batch{SQL: sqlRevenue}) {
		t.Error("a plan whose table was evicted was served as a hit")
	}
	if found, _ := entry(sqlRevenue); found {
		t.Error("the entry of a plan whose table was evicted stayed in the plan cache")
	}

	// A plan that computes: under a budget that admits nothing, the batch
	// spools nothing and its plan is cached at the generation it saw.
	bump(opt, "shrinking the budget to nothing", func() { store.SetBudgets(1, 0) })
	if run(Batch{SQL: sqlBatch}) {
		t.Error("first run of the two-query batch was a hit")
	}
	if found, stored := entry(sqlBatch); !found || stored {
		t.Fatalf("a computing plan that spooled nothing: entry found=%v stored=%v, want found and not stored", found, stored)
	}
	if !run(Batch{SQL: sqlBatch}) {
		t.Error("a computing plan was not reused at the generation it was planned at")
	}
	store.SetBudgets(ample, 0)
	bump(opt, "admitting a query's results", func() { run(Batch{SQL: sqlCounts}) })
	if run(Batch{SQL: sqlBatch}) {
		t.Error("a computing plan was reused across a generation bump")
	}

	// A parameterized plan that reads every binding from the store still
	// invokes: it computes, and is not carried across a bump either.
	opt, run = open(ssb.Catalog(0.01), ssb.LoadDB, 0.0002)
	drill := func(months ...int64) Batch {
		return Batch{Queries: ssb.DrillParam(int64(len(months))), ParamSets: ssb.DrillParamBindings(months...)}
	}
	bump(opt, "admitting three bindings", func() { run(drill(1, 2, 3)) })
	run(drill(1, 2, 3))
	if !run(drill(1, 2, 3)) {
		t.Error("a parameterized plan was not reused at the generation it was planned at")
	}
	bump(opt, "admitting another query's results", func() { run(Batch{SQL: ssb.QuerySQL(2, 0)}) })
	if run(drill(1, 2, 3)) {
		t.Error("a parameterized plan was reused across a generation bump")
	}
}

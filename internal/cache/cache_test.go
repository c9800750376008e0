package cache

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/exec"
	"mqo/internal/physical"
	"mqo/internal/storage"
)

// makeWorld creates four 2000-row base tables with deterministic data and a
// catalog whose statistics match.
func makeWorld(t *testing.T) (*storage.DB, *catalog.Catalog) {
	return makeWorldRows(t, 2000)
}

func makeWorldRows(t *testing.T, rows int) (*storage.DB, *catalog.Catalog) {
	t.Helper()
	db := storage.NewDB(1024)
	cat := catalog.New()
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"R", "S", "T", "P"} {
		schema := algebra.Schema{
			{Col: algebra.Col(name, "id"), Typ: algebra.TInt},
			{Col: algebra.Col(name, "fk"), Typ: algebra.TInt},
			{Col: algebra.Col(name, "num"), Typ: algebra.TInt},
		}
		tab, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			r := storage.Row{
				algebra.IntVal(int64(i + 1)),
				algebra.IntVal(rng.Int63n(int64(rows)) + 1),
				algebra.IntVal(rng.Int63n(100) + 1),
			}
			if _, err := tab.Heap.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		cat.Add(&catalog.Table{
			Name: name,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", int64(rows)),
				catalog.IntColRange("fk", int64(rows), 1, int64(rows)),
				catalog.IntColRange("num", 100, 1, 100),
			},
			Rows: int64(rows),
		})
	}
	return db, cat
}

func chain(tables []string, selConst int64) *algebra.Tree {
	t := algebra.SelectT(algebra.Cmp(algebra.Col(tables[0], "num"), algebra.GE, algebra.IntVal(selConst)),
		algebra.ScanT(tables[0]))
	for i := 1; i < len(tables); i++ {
		pred := algebra.ColEq(algebra.Col(tables[i-1], "fk"), algebra.Col(tables[i], "id"))
		t = algebra.JoinT(pred, t, algebra.ScanT(tables[i]))
	}
	return t
}

// runTicket drives one batch through the store's full life cycle — arm,
// optimize, decide spools, execute, commit — under the given binding sets;
// a nil store runs it uncached. It returns the executed rows and stats, the
// plan and the number of whole-expression spools.
func runTicket(t *testing.T, m *Manager, db *storage.DB, cat *catalog.Catalog,
	queries []*algebra.Tree, sets []map[string]algebra.Value) ([]exec.QueryResult, exec.RunStats, *physical.Plan, int) {
	t.Helper()
	model := cost.DefaultModel()
	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		t.Fatal(err)
	}
	ticket := m.Arm(pd, sets)
	res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		ticket.Abort()
		t.Fatal(err)
	}
	spools := ticket.PlanSpools(res.Plan)
	results, stats, err := exec.Run(context.Background(), db, model, res.Plan, &exec.Env{
		ParamSets: sets, Cache: &exec.CacheIO{Spools: spools, BindSpools: ticket.BindingSpools()}})
	if err != nil {
		ticket.Abort()
		t.Fatalf("run: %v\nplan:\n%s", err, res.Plan)
	}
	ticket.Commit()
	return results, stats, res.Plan, len(spools)
}

// runBatch is runTicket for a parameter-free batch, returning the executed
// rows and stats plus the numbers of CacheScan reads and spools.
func runBatch(t *testing.T, m *Manager, db *storage.DB, cat *catalog.Catalog,
	queries ...*algebra.Tree) ([]exec.QueryResult, exec.RunStats, int, int) {
	t.Helper()
	results, stats, plan, spools := runTicket(t, m, db, cat, queries, nil)
	reads := map[string]bool{}
	plan.Root.Walk(func(pn *physical.PlanNode) {
		if pn.E.Kind == physical.CacheScanOp {
			reads[pn.E.Arm.CacheName] = true
		}
	})
	return results, stats, len(reads), spools
}

func TestCanonicalFingerprintsAcrossDAGs(t *testing.T) {
	_, cat := makeWorld(t)
	build := func(q *algebra.Tree) (*dag.DAG, *dag.Group) {
		d := dag.New(cost.Estimator{Cat: cat})
		root, err := d.AddQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Expand(); err != nil {
			t.Fatal(err)
		}
		if err := d.Subsume(); err != nil {
			t.Fatal(err)
		}
		if err := d.Expand(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Finalize(); err != nil {
			t.Fatal(err)
		}
		return d, root.Find()
	}
	// The same logical query written with different join associations must
	// produce identical canonical fingerprints in two independent DAGs.
	pRS := algebra.ColEq(algebra.Col("R", "fk"), algebra.Col("S", "id"))
	pST := algebra.ColEq(algebra.Col("S", "fk"), algebra.Col("T", "id"))
	q1 := algebra.JoinT(pST, algebra.JoinT(pRS, algebra.ScanT("R"), algebra.ScanT("S")), algebra.ScanT("T"))
	q2 := algebra.JoinT(pRS, algebra.ScanT("R"), algebra.JoinT(pST, algebra.ScanT("S"), algebra.ScanT("T")))
	d1, r1 := build(q1)
	d2, r2 := build(q2)
	fp1 := dag.CanonicalFingerprints(d1)
	fp2 := dag.CanonicalFingerprints(d2)
	if fp1[r1] != fp2[r2] {
		t.Errorf("equivalent queries fingerprint differently:\n%s\nvs\n%s", fp1[r1], fp2[r2])
	}
	// A different query must differ.
	d3, r3 := build(chain([]string{"R", "S", "P"}, 90))
	fp3 := dag.CanonicalFingerprints(d3)
	if fp3[r3] == fp1[r1] {
		t.Error("different queries share a canonical fingerprint")
	}
}

// TestHitOnRepeatedBatch: the first batch spools its result; the repeat is
// answered by scanning the spooled table — fewer page reads, identical
// rows, reinforced entry.
func TestHitOnRepeatedBatch(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 0)
	q := chain([]string{"R", "S", "T"}, 90)

	first, firstStats, hits1, spools1 := runBatch(t, m, db, cat, q)
	if spools1 == 0 {
		t.Fatal("first batch admitted nothing")
	}
	if hits1 != 0 {
		t.Errorf("first batch claims %d hits", hits1)
	}
	for _, e := range m.Entries() {
		if e.Bytes != db.CacheBytes(e.Table) {
			t.Errorf("entry %s bytes %d != real %d", e.Table, e.Bytes, db.CacheBytes(e.Table))
		}
	}

	second, secondStats, hits2, _ := runBatch(t, m, db, cat, q)
	if hits2 == 0 {
		t.Fatal("repeated batch did not read the cache")
	}
	if secondStats.IO.Reads >= firstStats.IO.Reads {
		t.Errorf("cache hit reads %d not below compute reads %d",
			secondStats.IO.Reads, firstStats.IO.Reads)
	}
	if len(second[0].Rows) != len(first[0].Rows) {
		t.Fatalf("row count changed: %d vs %d", len(second[0].Rows), len(first[0].Rows))
	}
	for i := range first[0].Rows {
		for j := range first[0].Rows[i] {
			if algebra.Compare(first[0].Rows[i][j], second[0].Rows[i][j]) != 0 {
				t.Fatalf("row %d differs across cache hit", i)
			}
		}
	}
	st := m.Stats()
	if st.Hits == 0 || st.HitBatches != 1 || st.Batches != 2 {
		t.Errorf("stats wrong: %+v", st)
	}
	reinforced := false
	for _, e := range m.Entries() {
		if e.Hits > 0 && e.Value > e.admitValue {
			reinforced = true
		}
	}
	if !reinforced {
		t.Error("no entry was reinforced on hit")
	}
}

// TestHitAcrossDifferentQueries: two different queries sharing σ(R)⋈S; the
// second must reuse the spooled shared subexpression when the first batch
// admitted it, or at minimum the repeated identical query must hit. This
// guards the fingerprint matching across distinct batch DAGs.
func TestHitAcrossDifferentQueries(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 0)
	if _, _, _, spools := runBatch(t, m, db, cat,
		chain([]string{"R", "S", "T"}, 90), chain([]string{"R", "S", "P"}, 90)); spools == 0 {
		t.Fatal("shared batch admitted nothing")
	}
	// A new batch containing one of the originals must hit the store.
	_, _, hits, _ := runBatch(t, m, db, cat, chain([]string{"R", "S", "P"}, 90))
	if hits == 0 {
		t.Error("overlapping follow-up batch missed the cache entirely")
	}
}

// TestSingleFlightAdmission: once a batch claims a key, a concurrent
// batch's admission pass must skip it (pending entries are visible
// immediately), so the same result is never spooled twice.
func TestSingleFlightAdmission(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	m := newTestStore(t, db, model, 64<<20, 0)
	q := chain([]string{"R", "S"}, 90)

	build := func() (*physical.DAG, *core.Result, *Ticket) {
		pd, err := core.BuildDAG(cat, model, []*algebra.Tree{q})
		if err != nil {
			t.Fatal(err)
		}
		ticket := m.Arm(pd, nil)
		res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return pd, res, ticket
	}
	_, res1, t1 := build()
	_, res2, t2 := build()
	s1 := t1.PlanSpools(res1.Plan)
	s2 := t2.PlanSpools(res2.Plan)
	if len(s1) == 0 {
		t.Fatal("first ticket admitted nothing")
	}
	if len(s2) != 0 {
		t.Errorf("second ticket admitted %d results already claimed by the first", len(s2))
	}
	// Abort the claim: the key is free again and its table is gone.
	tables := map[string]bool{}
	for _, name := range s1 {
		tables[name] = true
	}
	t1.Abort()
	t2.Abort()
	for name := range tables {
		if _, err := db.Cache(name); err == nil {
			t.Errorf("aborted pending table %s still in storage", name)
		}
	}
	if st := m.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Errorf("aborted claims left state behind: %+v", st)
	}
	_, res3, t3 := build()
	if s3 := t3.PlanSpools(res3.Plan); len(s3) == 0 {
		t.Error("key not reclaimable after abort")
	} else {
		t3.Abort()
	}
}

// TestBudgetAndEviction: spooled bytes never exceed the budget once all
// batches commit, shrinking the budget drops real tables from storage, and
// pinned entries survive rebalancing until unpinned.
func TestBudgetAndEviction(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 0)
	for _, q := range []*algebra.Tree{
		chain([]string{"R", "S"}, 90),
		chain([]string{"S", "T"}, 90),
		chain([]string{"T", "P"}, 90),
	} {
		runBatch(t, m, db, cat, q)
	}
	st := m.Stats()
	if st.Entries == 0 {
		t.Fatal("nothing admitted")
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("over budget after commits: %+v", st)
	}
	if got := db.NumCaches(); got != st.Entries {
		t.Fatalf("storage holds %d cache tables, store accounts %d", got, st.Entries)
	}

	// Pin one entry by arming a batch over its query, then shrink the
	// budget to zero: everything unpinned must go, the pinned entry stays.
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), []*algebra.Tree{chain([]string{"R", "S"}, 90)})
	if err != nil {
		t.Fatal(err)
	}
	ticket := m.Arm(pd, nil)
	if len(ticket.armed) == 0 {
		t.Fatal("arming the repeated query matched nothing")
	}
	m.SetBudgets(0, 0)
	if got := m.Stats().Entries; got != len(ticket.armed) {
		t.Errorf("rebalance kept %d entries, want the %d pinned", got, len(ticket.armed))
	}
	for e := range ticket.armed {
		if _, err := db.Cache(e.Table); err != nil {
			t.Errorf("pinned entry's table %s was dropped: %v", e.Table, err)
		}
	}
	ticket.Abort() // release pins; rebalance resumes
	if got := m.Stats().Entries; got != 0 {
		t.Errorf("%d entries survive a zero budget with no pins", got)
	}
	if got := db.NumCaches(); got != 0 {
		t.Errorf("%d spooled tables survive eviction", got)
	}
	if m.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

// TestZeroBudgetAdmitsNothing: a zero budget store never spools.
func TestZeroBudgetAdmitsNothing(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 0, 0)
	_, _, _, spools := runBatch(t, m, db, cat, chain([]string{"R", "S"}, 90))
	if spools != 0 || m.UsedBytes() != 0 || db.NumCaches() != 0 {
		t.Error("zero-budget store admitted entries")
	}
}

// TestConcurrentBatches hammers one store from many goroutines running
// full batch cycles over a shared query mix (run under -race in CI):
// accounting must stay consistent and storage must mirror the entry set.
func TestConcurrentBatches(t *testing.T) {
	db, cat := makeWorld(t)
	m := newTestStore(t, db, cost.DefaultModel(), 64<<20, 0)
	queries := []*algebra.Tree{
		chain([]string{"R", "S"}, 90),
		chain([]string{"S", "T"}, 90),
		chain([]string{"R", "S", "T"}, 90),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				runBatch(t, m, db, cat, queries[(w+i)%len(queries)])
			}
		}(w)
	}
	// Concurrent runtime resizes must not race admission decisions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			m.SetBudgets(64<<20, 0)
			m.SetBudgets(48<<20, 0)
		}
		m.SetBudgets(64<<20, 0)
	}()
	wg.Wait()
	st := m.Stats()
	if st.Batches != 12 {
		t.Errorf("batches = %d, want 12", st.Batches)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Errorf("over budget: %+v", st)
	}
	if got := db.NumCaches(); got != st.Entries {
		t.Errorf("storage holds %d cache tables, store accounts %d", got, st.Entries)
	}
	if st.HitBatches == 0 {
		t.Error("no batch hit the cache despite repeats")
	}
}

// TestZeroRowResultIsCacheable: an admitted result that executes to zero
// rows must become a ready entry (an empty scan is maximally cheap to
// serve), charged one page so its density stays finite — not be withdrawn
// and re-claimed on every batch, burning admission slots forever.
func TestZeroRowResultIsCacheable(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	m := newTestStore(t, db, model, 64<<20, 0)
	q := chain([]string{"R", "S"}, 90)

	pd, err := core.BuildDAG(cat, model, []*algebra.Tree{q})
	if err != nil {
		t.Fatal(err)
	}
	ticket := m.Arm(pd, nil)
	res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spools := ticket.PlanSpools(res.Plan)
	if len(spools) == 0 {
		t.Fatal("nothing admitted")
	}
	// Simulate an execution whose spooled results came out empty: the
	// tables exist in the cache namespace but hold no pages.
	for n, name := range spools {
		db.CreateCache(name, n.LG.Schema)
	}
	ticket.Commit()

	st := m.Stats()
	if st.Admissions != int64(len(spools)) || st.Entries != len(spools) {
		t.Fatalf("empty results withdrawn instead of admitted: %+v", st)
	}
	for _, e := range m.Entries() {
		if e.Bytes != storage.PageSize {
			t.Errorf("entry %s accounted %d bytes, want one page (%d)", e.Table, e.Bytes, storage.PageSize)
		}
	}
	// The key stays claimed: an identical batch re-arms instead of
	// re-admitting.
	pd2, err := core.BuildDAG(cat, model, []*algebra.Tree{q})
	if err != nil {
		t.Fatal(err)
	}
	t2 := m.Arm(pd2, nil)
	if len(t2.armed) == 0 {
		t.Error("ready empty-result entry not armed on the repeat batch")
	}
	res2, err := core.Optimize(context.Background(), pd2, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2 := t2.PlanSpools(res2.Plan); len(s2) != 0 {
		t.Errorf("repeat batch re-admitted %d empty results", len(s2))
	}
	t2.Abort()
}

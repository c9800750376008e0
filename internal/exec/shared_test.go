package exec

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/ssb"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// runTrees runs trees, whose scans s feeds, as the tasks of one run and
// returns their answers.
func runTrees(ctx context.Context, s *sched, trees []Iterator) ([]QueryResult, error) {
	b := &builder{ctx: ctx, env: s.env, sched: s}
	for _, tree := range trees {
		s.add(b, nil, false, nil).tree = tree
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	out := make([]QueryResult, len(s.tasks))
	for i, t := range s.tasks {
		out[i] = t.res
	}
	return out, nil
}

// TestSharedScansMatchReference runs batches whose queries scan the same
// tables, so that shared passes feed them, and checks every answer: the SSB
// flights (whose lineorder passes test the key gates of several scans at
// once) and TPC-D BQ1-5 under all four algorithms, profiled and with every
// row spoiled the moment it lapses, against Reference; and trees built by
// hand, each against the same tree reading alone — every star shape of
// star_test.go over one fact table at once, a table joined with itself by a
// merge and by a block nested-loops join next to another scan of it, an
// Invoke that re-opens its scan for every binding next to a query over the
// same table, and an ungated scan next to gated ones.
func TestSharedScansMatchReference(t *testing.T) {
	t.Run("ssb flights", func(t *testing.T) {
		db := storage.NewDB(64)
		if err := ssb.LoadDB(db, 0.002, 7); err != nil {
			t.Fatal(err)
		}
		var batches [][]*algebra.Tree
		for f := 1; f <= ssb.NumFlights; f++ {
			batches = append(batches, ssb.Flight(f))
		}
		sharedBatchesMatchReference(t, db, ssb.Catalog(0.002), batches, nil, "shared key gates")
	})
	t.Run("tpcd BQ1-5", func(t *testing.T) {
		db := storage.NewDB(64)
		if err := tpcd.LoadDB(db, 0.0005, 7); err != nil {
			t.Fatal(err)
		}
		var batches [][]*algebra.Tree
		for i := 1; i <= 5; i++ {
			batches = append(batches, tpcd.BatchQueries(i))
		}
		sharedBatchesMatchReference(t, db, tpcd.Catalog(0.0005), batches, nil)
	})
	t.Run("invoke next to a query of its table", func(t *testing.T) {
		db := storage.NewDB(64)
		if err := ssb.LoadDB(db, 0.0002, 11); err != nil {
			t.Fatal(err)
		}
		batch := append(ssb.DrillParam(3), ssb.Flight(1)[0])
		sharedBatchesMatchReference(t, db, ssb.Catalog(0.01), [][]*algebra.Tree{batch}, ssb.DrillParamBindings(1, 2, 3))
	})
	t.Run("star shapes", func(t *testing.T) {
		for _, c := range starCases() {
			db := starDB(t, c, false)
			var alone []Iterator
			for _, s := range starShapes() {
				top, _ := starPlan(t, db, s, &Env{}, spoil, nil)
				alone = append(alone, top)
			}
			s := newSched(context.Background(), &Env{})
			var fed []Iterator
			for _, shape := range starShapes() {
				top, _ := starPlan(t, db, shape, &Env{}, spoil, s)
				fed = append(fed, top)
			}
			sharedTreesMatchAlone(t, c.name, s, alone, fed)
		}
	})
	t.Run("self-joins", func(t *testing.T) {
		db := starDB(t, starCases()[0], true)
		tab, err := db.Table("f")
		if err != nil {
			t.Fatal(err)
		}
		c0 := algebra.Col("f", "c0") // ascending in file order: a merge join needs no sort
		trees := func(s *sched) []Iterator {
			scan := func() Iterator { return spoil(newScan(nil, s, tab.Heap, tab.Schema, nil)) }
			merge := &mergeJoin{left: scan(), right: scan(), lIdx: []int{0}, rIdx: []int{0}}
			merge.schema = merge.left.Schema().Concat(merge.right.Schema())
			var err error
			if merge.pred, err = compilePred(algebra.ColEq(c0, c0), merge.schema, &Env{}); err != nil {
				t.Fatal(err)
			}
			v := algebra.Col("f", "v")
			bnl, err := newNLJoin(scan(), scan(), algebra.ColEq(v, v), &Env{})
			if err != nil {
				t.Fatal(err)
			}
			return []Iterator{spoil(merge), spoil(bnl), scan()}
		}
		s := newSched(context.Background(), &Env{})
		sharedTreesMatchAlone(t, "self-joins", s, trees(nil), trees(s))
	})
	t.Run("ungated next to gated", func(t *testing.T) {
		db := starDB(t, starCases()[0], false)
		tab, err := db.Table("f")
		if err != nil {
			t.Fatal(err)
		}
		trees := func(s *sched) []Iterator {
			var out []Iterator
			for _, keep := range []int64{-1, 10, 50, 90} {
				scan := spoil(newScan(nil, s, tab.Heap, tab.Schema, nil))
				if keep < 0 {
					out = append(out, scan)
					continue
				}
				f, err := newFilter(scan, algebra.Cmp(algebra.Col("f", "v"), algebra.LT, algebra.IntVal(keep)), &Env{})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, f)
			}
			return out
		}
		s := newSched(context.Background(), &Env{})
		sharedTreesMatchAlone(t, "ungated next to gated", s, trees(nil), trees(s))
	})
}

// sharedTreesMatchAlone drains each tree of alone by itself, then runs fed,
// the same trees over the scans s feeds, as one run, and compares the
// answers row for row, order included.
func sharedTreesMatchAlone(t *testing.T, name string, s *sched, alone, fed []Iterator) {
	t.Helper()
	got, err := runTrees(context.Background(), s, fed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, it := range alone {
		want := mustDrain(t, it)
		if !slices.EqualFunc(got[i].Rows, want, sameValues) {
			t.Fatalf("%s: tree %d was answered %d rows, alone it gives %d, or other rows", name, i, len(got[i].Rows), len(want))
		}
	}
}

// sharedBatchesMatchReference runs each batch under every algorithm,
// profiled and spoiled, and compares its answers with Reference's; some run
// must have fed scans by a shared pass, and some have noted each gate kind
// of need (NoteGates).
func sharedBatchesMatchReference(t *testing.T, db *storage.DB, cat *catalog.Catalog, batches [][]*algebra.Tree, sets []map[string]algebra.Value, need ...string) {
	t.Helper()
	model := cost.DefaultModel()
	noted := map[string]bool{}
	for b, queries := range batches {
		want := make([]QueryResult, len(queries))
		for i, q := range queries {
			rows, schema, err := Reference(db, q, &Env{ParamSets: sets})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = QueryResult{schema, rows}
		}
		for _, alg := range core.Algorithms() {
			pd, err := core.BuildDAG(cat, model, queries)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			env := SpoilRows(NoteGates(&Env{ParamSets: sets, Profile: true}, func(kind string) { noted[kind] = true }))
			got, stats, err := Run(context.Background(), db, model, res.Plan, env)
			if err != nil {
				t.Fatalf("batch %d, %v: %v\nplan:\n%s", b, alg, err, res.Plan)
			}
			for i := range got {
				if !EqualRows(got[i], want[i], 1e-9) {
					t.Fatalf("batch %d, %v, query %d: %d rows differ from the reference's %d\nplan:\n%s",
						b, alg, i, len(got[i].Rows), len(want[i].Rows), res.Plan)
				}
			}
			if pages := profiledPages(stats.Profile); pages != stats.IO.Reads {
				t.Errorf("batch %d, %v: the profile counts %d pages, the pool read %d", b, alg, pages, stats.IO.Reads)
			}
		}
	}
	for _, kind := range append(need, "shared pass") {
		if !noted[kind] {
			t.Errorf("no run noted %q", kind)
		}
	}
}

// profiledPages is the pages a profile's materializations and queries count
// in all, each inclusive of its operators'.
func profiledPages(p *BatchProfile) (pages int64) {
	for _, roots := range [][]*NodeProfile{p.Mats, p.Queries} {
		for _, r := range roots {
			pages += r.Pages
		}
	}
	return pages
}

// failIter fails, or cancels its run, on the at-th row pulled through any
// operator of the run that wraps with it.
type failIter struct {
	Iterator
	pulled *int
	at     int
	fail   func() error
}

func (f *failIter) Next() (storage.Row, bool, error) {
	if *f.pulled++; *f.pulled == f.at {
		if err := f.fail(); err != nil {
			return nil, false, err
		}
	}
	return f.Iterator.Next()
}

func (f *failIter) gate(by any, g *gate) bool { return setGate(f.Iterator, by, g) }

// TestRunStopsEveryTask cancels a run of three queries in the middle of the
// pass they share, and fails one of its operators with an error. Either way
// Run returns the error, every task's coroutine is gone (the goroutine count
// is back where it was), the pool's latch is not left held by a page a
// stopped task was fed from, and the run's temps are dropped.
func TestRunStopsEveryTask(t *testing.T) {
	db := storage.NewDB(64)
	if err := ssb.LoadDB(db, 0.002, 1); err != nil { // the materialization and two queries share lineorder
		t.Fatal(err)
	}
	model := cost.DefaultModel()
	pd, err := core.BuildDAG(ssb.Catalog(0.002), model, ssb.Flight(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Mats) == 0 {
		t.Fatal("flight 3 under Greedy materializes nothing: no temp to drop")
	}
	lineorder, err := db.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("broken operator")
	for _, at := range []int{50, 900, 4000} {
		for _, cancelled := range []bool{true, false} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			pulled := 0
			want := broken
			fail := func() error { return broken }
			if cancelled {
				want, fail = context.Canceled, func() error { cancel(); return nil }
			}
			env := &Env{Profile: at == 900, wrap: func(it Iterator) Iterator {
				return &failIter{Iterator: it, pulled: &pulled, at: at, fail: fail}
			}}
			_, _, err := Run(ctx, db, model, res.Plan, env)
			cancel()
			if !errors.Is(err, want) {
				t.Fatalf("row %d, cancelled %v: Run returned %v, want %v", at, cancelled, err, want)
			}
			if pulled < at {
				t.Fatalf("row %d: the run ended after %d rows without failing", at, pulled)
			}
			if n := db.NumTemps(); n != 0 {
				t.Errorf("row %d, cancelled %v: %d temps left", at, cancelled, n)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("row %d, cancelled %v: %d goroutines, %d before the run", at, cancelled, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			poolLatchFree(t, lineorder)
		}
	}
}

// poolLatchFree scans tab, which blocks for good if the pool's latch was left
// held.
func poolLatchFree(t *testing.T, tab *storage.Table) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- tab.Heap.ScanCols([]int{0}, func(storage.RID, storage.Row) error { return nil })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pool's latch is still held")
	}
}

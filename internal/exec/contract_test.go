package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// spoilIter holds its consumer to the Iterator contract. The row it hands out
// is a copy of its child's, and the moment the contract lets that row lapse —
// the next Next, Close, a re-Open — it overwrites the copy with garbage. An
// operator that still reads a row it was given earlier then computes on
// garbage every time, instead of only when its child happens to have reused
// the memory by then.
type spoilIter struct {
	child Iterator
	last  storage.Row
}

// SpoilRows makes every run under env put a spoilIter between each operator
// the builder instantiates and its consumer.
func SpoilRows(env *Env) *Env {
	env.wrap = spoil
	return env
}

func spoil(it Iterator) Iterator { return &spoilIter{child: it} }

func (p *spoilIter) lapse() {
	for i, v := range p.last {
		p.last[i] = garbage(v.Typ, 0)
	}
	p.last = nil
}

func (p *spoilIter) Open() error { p.lapse(); return p.child.Open() }

func (p *spoilIter) Next() (storage.Row, bool, error) {
	p.lapse()
	r, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.last = slices.Clone(r)
	return p.last, true, nil
}

func (p *spoilIter) Close() error           { p.lapse(); return p.child.Close() }
func (p *spoilIter) Schema() algebra.Schema { return p.child.Schema() }
func (p *spoilIter) buffered() int          { return bufferedRows(p.child) }

// gate forwards, so that the scans of a spoiled run are gated as a plain
// run's are, and the rows a gate lets through are spoiled like any other.
func (p *spoilIter) gate(by any, g *gate) bool { return setGate(p.child, by, g) }

// NoteGates makes every run under env call note with the kind of each gate a
// scan takes — "Filter gate", "BNLJoin streamed-side gate", "BNLJoin
// holdOuter gate", and "forwarded gate" when a join passed it on from above
// — and with "BNLJoin empty held side" when a join held nothing and so never
// opened its other input.
func NoteGates(env *Env, note func(kind string)) *Env {
	env.onGate = note
	return env
}

// TestRowsValidUntilNextOperators runs the operator-level differential tests
// with every row lapsing as early as the contract allows: the join kernels
// against the all-pairs loop, an Invoke over its bindings, and the batches of
// the small chain world — shared materializations, aggregates, a
// parameterized Invoke — under all four algorithms against Reference. The
// workload matrix (SSB, TPC-D, PSP, the result cache in both tiers, spooled
// bindings) is TestRowsValidUntilNext, next to TestPrunedPlansMatchReference.
func TestRowsValidUntilNextOperators(t *testing.T) {
	t.Run("joins", func(t *testing.T) { joinsMatchAllPairs(t, spoil) })
	t.Run("invoke", func(t *testing.T) { invokeRunsPerBinding(t, spoil) })
	t.Run("batches", func(t *testing.T) {
		db, cat := makeWorld(t)
		sum := algebra.AggExpr{Func: algebra.Sum, Arg: algebra.ColOf("B", "num"), As: algebra.Col("q", "total")}
		checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{
			chainQ([]string{"A", "B", "C"}, 95), chainQ([]string{"A", "B"}, 95), chainQ([]string{"A", "B"}, 80),
			algebra.AggT([]algebra.Column{algebra.Col("A", "num")}, []algebra.AggExpr{sum}, chainQ([]string{"A", "B"}, 50)),
			algebra.AggT(nil, []algebra.AggExpr{sum}, chainQ([]string{"A", "B"}, 50)),
		}, SpoilRows(&Env{}))
		nested := algebra.NewTree(algebra.Invoke{Times: 5}, algebra.SelectT(
			algebra.CmpParam(algebra.Col("B", "id"), algebra.EQ, "k"), chainQ([]string{"A", "B"}, 50)))
		var sets []map[string]algebra.Value
		for k := int64(10); k <= 50; k += 10 {
			sets = append(sets, map[string]algebra.Value{"k": algebra.IntVal(k)})
		}
		checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{nested}, SpoilRows(&Env{ParamSets: sets}))
	})
}

// TestMergeJoinStopsPullingRight: when the left input runs out, the merge
// join is done, and the pages of the right heap beyond the last left key are
// never faulted.
func TestMergeJoinStopsPullingRight(t *testing.T) {
	db := storage.NewDB(64)
	ds, drows := dimTable(20000)
	tab := loadTable(t, db, "d", ds, drows)
	ls := intSchema("l", "k")
	schema := ls.Concat(ds)
	pred, err := compilePred(algebra.ColEq(algebra.Col("l", "k"), algebra.Col("d", "ck")), schema, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	mj := &mergeJoin{
		left:  &sliceIter{rows: intRows([]int64{3}, []int64{5}, []int64{5}, []int64{40}), schema: ls},
		right: newTableScan(tab.Heap, ds, nil),
		lIdx:  []int{0}, rIdx: []int{0}, pred: pred, schema: schema,
	}
	db.Pool.ResetStats()
	if got := mustDrain(t, mj); len(got) != 4 || got[3][1].I != 40 {
		t.Fatalf("joined %v, want the four left rows with their partners", got)
	}
	if io, pages := db.Pool.Stats(), int64(tab.Heap.NumPages()); io.Reads+io.Hits >= pages || io.Reads+io.Hits == 0 {
		t.Errorf("the join touched %d pages of the right input's %d, want the first few", io.Reads+io.Hits, pages)
	}
}

// TestProfilePagesAreInclusiveAndExact: page misses are counted by the leaves
// that cause them and summed up the tree once, so the roots' Pages — the
// materializations' and the queries' — add up to what the pool says the run
// read, and a parent's is never below a child's. That holds for a lone query,
// and for a three-query flight and flight 3 with its materialization, whose
// lineorder scans one shared pass feeds: each page it reads counts once. No
// tree counts the time its task was parked, so the trees' times add up to no
// more than the run's, and the scans the shared pass fed say how many it fed.
func TestProfilePagesAreInclusiveAndExact(t *testing.T) {
	model := cost.DefaultModel()
	run := func(t *testing.T, db *storage.DB, cat *catalog.Catalog, queries []*algebra.Tree, alg core.Algorithm) RunStats {
		t.Helper()
		pd, err := core.BuildDAG(cat, model, queries)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Run(context.Background(), db, model, res.Plan, &Env{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if pages := profiledPages(stats.Profile); pages != stats.IO.Reads || pages == 0 {
			t.Errorf("the trees count %d pages, the pool read %d", pages, stats.IO.Reads)
		}
		stats.Profile.Visit(func(p *NodeProfile) {
			sum := int64(0)
			for _, c := range p.Children {
				sum += c.Pages
			}
			if p.Pages < sum {
				t.Errorf("%s reports %d pages, its children %d", p.Op, p.Pages, sum)
			}
		})
		return stats
	}

	t.Run("one query", func(t *testing.T) {
		db, cat := makeWorld(t)
		small := storage.NewDB(16) // every page faults
		copyWorld(t, db, small)
		stats := run(t, small, cat, []*algebra.Tree{chainQ([]string{"A", "B", "C"}, 90)}, core.Volcano)
		if len(stats.Profile.Mats) != 0 || len(stats.Profile.Queries) != 1 {
			t.Fatalf("want one query tree and no materialization, got %+v", stats.Profile)
		}
		if root := stats.Profile.Queries[0]; root.Bytes != root.Pages*storage.PageSize {
			t.Errorf("root reports %d pages, %d bytes", root.Pages, root.Bytes)
		}
	})

	db := storage.NewDB(64)
	if err := ssb.LoadDB(db, 0.002, 1); err != nil { // flight 3's materialization holds rows, and scans lineorder
		t.Fatal(err)
	}
	for _, f := range []int{1, 3} {
		t.Run(fmt.Sprintf("flight %d", f), func(t *testing.T) {
			stats := run(t, db, ssb.Catalog(0.002), ssb.Flight(f), core.Greedy)
			p := stats.Profile
			if f == 3 && len(p.Mats) == 0 {
				t.Fatal("flight 3 under Greedy materializes nothing")
			}
			var wall time.Duration
			for _, roots := range [][]*NodeProfile{p.Mats, p.Queries} {
				for _, r := range roots {
					wall += r.Wall
				}
			}
			if wall > stats.Wall {
				t.Errorf("the trees took %v, the run %v: parked time was counted", wall, stats.Wall)
			}
			shared := 0
			p.Visit(func(n *NodeProfile) {
				if n.Op == "SeqScan" && n.StoredCols == 10 && n.Shared > 1 { // lineorder's
					shared++
					if want := fmt.Sprintf(" shared=%d ", n.Shared); !strings.Contains(FormatAnalyze(stats), want) {
						t.Errorf("EXPLAIN ANALYZE does not say%s", want)
					}
				}
			})
			if shared < 2 {
				t.Errorf("%d lineorder scans say a pass fed them with others, want several", shared)
			}
		})
	}
}

// burstIter is a scan-like child: every per-th Next "reads a page" (and says
// so beforehand) for 20 µs, the others hand over a row at once.
type burstIter struct {
	sliceIter
	per int
}

func (b *burstIter) decodedAhead() int { return (b.per - b.pos%b.per) % b.per }

func (b *burstIter) Next() (storage.Row, bool, error) {
	if b.decodedAhead() == 0 {
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
	}
	return b.sliceIter.Next()
}

// TestStatIterTimesPageFetchesExactly pins the rules that keep a pipelined
// tree's profile sane. A scan's Next that reads a page is timed on its own: it
// adds the same time to the node and to the profiler's fetchWall, counts the
// page's rows, and leaves the sampler alone; the calls that hand those rows
// over are not timed at all. An operator above takes the fetch time that
// passed during its own Next exactly, even on a call it does not time; and a
// call it does time counts for itself alone when a page was read during it,
// leaving the period to the next one. Rows a consumer leaves unpulled are not
// counted.
func TestStatIterTimesPageFetchesExactly(t *testing.T) {
	schema := intSchema("t", "v")
	rows := make([]storage.Row, 100)
	for i := range rows {
		rows[i] = storage.Row{algebra.IntVal(int64(i))}
	}
	prof := &profiler{}
	leafP, topP := &NodeProfile{}, &NodeProfile{}
	leaf := newStatIter(&burstIter{sliceIter: sliceIter{rows: rows, schema: schema}, per: 10}, leafP, prof)
	top := newStatIter(&filterIter{child: leaf, pred: func(storage.Row) (bool, error) { return true, nil }}, topP, prof)
	if err := top.Open(); err != nil {
		t.Fatal(err)
	}
	leafP.Wall, topP.Wall = 0, 0
	pull := func() {
		t.Helper()
		if _, ok, err := top.Next(); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}

	// A page read under a call the operator above does not time.
	top.period, top.skip = 64, 7
	pull()
	first := prof.fetchWall
	if first < 10*time.Microsecond || leafP.Wall != first || leafP.Rows != 10 {
		t.Errorf("the scan timed its page read as %v and counted %d rows; the profiler has %v, the page 10 rows", leafP.Wall, leafP.Rows, first)
	}
	if topP.Wall != first || top.skip != 6 || top.period != 64 {
		t.Errorf("the untimed call above took %v (skip %d, period %d), want exactly the %v read below it", topP.Wall, top.skip, top.period, first)
	}

	// The nine calls that hand over the page's other rows: nothing is timed.
	for i := 0; i < 9; i++ {
		top.skip = 5
		pull()
	}
	if prof.fetchWall != first || leafP.Wall != first || topP.Wall != first || leafP.Rows != 10 || topP.Rows != 10 {
		t.Errorf("cheap calls were timed or miscounted: fetchWall %v, walls %v and %v (want %v), rows %d and %d",
			prof.fetchWall, leafP.Wall, topP.Wall, first, leafP.Rows, topP.Rows)
	}

	// A page read under a call the operator above does time.
	top.period, top.skip = 64, 0
	pull()
	second := prof.fetchWall - first
	if top.period != 64 || top.skip != 0 {
		t.Errorf("a timed call with a page read in it moved the sampler to period %d, skip %d", top.period, top.skip)
	}
	if own := topP.Wall - first - second; second < 10*time.Microsecond || own <= 0 || own > second {
		t.Errorf("the timed call above took %v beside the %v read below it, want a little, unscaled", own, second)
	}

	// The consumer stops with nine decoded rows unpulled.
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}
	if leafP.Rows != 11 || topP.Rows != 11 {
		t.Errorf("rows %d and %d after 11 pulls", leafP.Rows, topP.Rows)
	}
}

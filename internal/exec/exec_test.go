package exec

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/storage"
)

// makeWorld creates three base tables with deterministic data and a catalog
// whose statistics match exactly.
func makeWorld(t *testing.T) (*storage.DB, *catalog.Catalog) {
	t.Helper()
	db := storage.NewDB(1024)
	cat := catalog.New()
	rng := rand.New(rand.NewSource(42))
	const rows = 2000
	for _, name := range []string{"A", "B", "C"} {
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
				algebra.IntVal(rng.Int63n(rows) + 1),
				algebra.IntVal(rng.Int63n(100) + 1),
			}
			if _, err := tab.Heap.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		cat.Add(&catalog.Table{
			Name: name,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", rows),
				catalog.IntColRange("fk", rows, 1, rows),
				catalog.IntColRange("num", 100, 1, 100),
			},
			Rows:    rows,
			Indexes: []catalog.IndexDef{{Column: "id", Clustered: true}},
		})
	}
	return db, cat
}

func chainQ(tables []string, selConst int64) *algebra.Tree {
	q := algebra.SelectT(algebra.Cmp(algebra.Col(tables[0], "num"), algebra.GE, algebra.IntVal(selConst)),
		algebra.ScanT(tables[0]))
	for i := 1; i < len(tables); i++ {
		pred := algebra.ColEq(algebra.Col(tables[i-1], "fk"), algebra.Col(tables[i], "id"))
		q = algebra.JoinT(pred, q, algebra.ScanT(tables[i]))
	}
	return q
}

// checkBatchAllAlgorithms optimizes the batch with every algorithm,
// executes each plan, and compares per-query results with the reference
// evaluator.
func checkBatchAllAlgorithms(t *testing.T, db *storage.DB, cat *catalog.Catalog, queries []*algebra.Tree, env *Env) {
	t.Helper()
	model := cost.DefaultModel()
	want := make([]QueryResult, len(queries))
	for i, q := range queries {
		e := &Env{}
		if env != nil {
			e.ParamSets = env.ParamSets
		}
		rows, schema, err := Reference(db, q, e)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want[i] = QueryResult{Schema: schema, Rows: rows}
	}
	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range core.Algorithms() {
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		e := &Env{}
		if env != nil {
			e.ParamSets, e.wrap = env.ParamSets, env.wrap
		}
		results, _, err := Run(context.Background(), db, model, res.Plan, e)
		if err != nil {
			t.Fatalf("%v run: %v\nplan:\n%s", alg, err, res.Plan)
		}
		if len(results) != len(queries) {
			t.Fatalf("%v: got %d results, want %d", alg, len(results), len(queries))
		}
		for i, qr := range results {
			if !EqualRows(qr, want[i], 1e-9) {
				t.Fatalf("%v query %d: %d rows differ from the reference's %d\nplan:\n%s",
					alg, i, len(qr.Rows), len(want[i].Rows), res.Plan)
			}
		}
	}
}

func TestExecuteSingleSelect(t *testing.T) {
	db, cat := makeWorld(t)
	q := algebra.SelectT(algebra.Cmp(algebra.Col("A", "num"), algebra.GE, algebra.IntVal(90)), algebra.ScanT("A"))
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{q}, nil)
}

func TestExecuteJoinPair(t *testing.T) {
	db, cat := makeWorld(t)
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{
		chainQ([]string{"A", "B"}, 95),
		chainQ([]string{"A", "C"}, 95),
	}, nil)
}

func TestExecuteSharedSubexpressionBatch(t *testing.T) {
	db, cat := makeWorld(t)
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{
		chainQ([]string{"A", "B", "C"}, 95),
		chainQ([]string{"A", "B"}, 95),
	}, nil)
}

func TestExecuteSubsumptionBatch(t *testing.T) {
	db, cat := makeWorld(t)
	// Two selections where one implies the other: exercises re-select
	// derivations end to end.
	q1 := chainQ([]string{"A", "B"}, 95)
	q2 := chainQ([]string{"A", "B"}, 80)
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{q1, q2}, nil)
}

func TestExecuteAggregates(t *testing.T) {
	db, cat := makeWorld(t)
	join := chainQ([]string{"A", "B"}, 50)
	sum := algebra.AggExpr{Func: algebra.Sum, Arg: algebra.ColOf("B", "num"), As: algebra.Col("q", "total")}
	cnt := algebra.AggExpr{Func: algebra.CountAll, As: algebra.Col("q", "n")}
	q1 := algebra.AggT([]algebra.Column{algebra.Col("A", "num")}, []algebra.AggExpr{sum, cnt}, join)
	q2 := algebra.AggT(nil, []algebra.AggExpr{sum}, chainQ([]string{"A", "B"}, 50))
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{q1, q2}, nil)
}

func TestExecuteAggregateSubsumptionPair(t *testing.T) {
	db, cat := makeWorld(t)
	base := chainQ([]string{"A", "B"}, 60)
	sum := algebra.AggExpr{Func: algebra.Sum, Arg: algebra.ColOf("B", "num"), As: algebra.Col("q", "s")}
	q1 := algebra.AggT([]algebra.Column{algebra.Col("A", "num")}, []algebra.AggExpr{sum}, base)
	q2 := algebra.AggT([]algebra.Column{algebra.Col("B", "num")}, []algebra.AggExpr{sum}, chainQ([]string{"A", "B"}, 60))
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{q1, q2}, nil)
}

func TestExecuteParameterizedInvoke(t *testing.T) {
	db, cat := makeWorld(t)
	inner := algebra.SelectT(algebra.CmpParam(algebra.Col("B", "id"), algebra.EQ, "k"),
		chainQ([]string{"A", "B"}, 50))
	nested := algebra.NewTree(algebra.Invoke{Times: 5}, inner)
	env := &Env{ParamSets: []map[string]algebra.Value{
		{"k": algebra.IntVal(10)}, {"k": algebra.IntVal(20)}, {"k": algebra.IntVal(30)},
		{"k": algebra.IntVal(40)}, {"k": algebra.IntVal(50)},
	}}
	checkBatchAllAlgorithms(t, db, cat, []*algebra.Tree{nested}, env)
}

func TestRunStatsAccounting(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	pd, err := core.BuildDAG(cat, model, []*algebra.Tree{chainQ([]string{"A", "B"}, 90)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Pool.ResetStats()
	_, stats, err := Run(context.Background(), db, model, res.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsOut == 0 {
		t.Error("expected output rows")
	}
	if stats.SimTime < 0 {
		t.Error("negative simulated time")
	}
	if stats.Wall <= 0 {
		t.Error("wall time not measured")
	}
}

func TestMaterializationSharingReducesIO(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	queries := []*algebra.Tree{
		chainQ([]string{"A", "B", "C"}, 95),
		chainQ([]string{"A", "B"}, 95),
	}
	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		t.Fatal(err)
	}

	run := func(alg core.Algorithm) RunStats {
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh := storage.NewDB(64) // small pool so I/O is visible
		copyWorld(t, db, fresh)
		_, stats, err := Run(context.Background(), fresh, model, res.Plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	_ = run(core.Volcano)
	_ = run(core.Greedy)
	// Both must at least complete; relative I/O is workload-dependent at
	// this scale, so correctness (above) rather than magnitude is asserted.
}

// copyWorld clones base tables between databases.
func copyWorld(t *testing.T, src, dst *storage.DB) {
	t.Helper()
	for _, name := range []string{"A", "B", "C"} {
		st, err := src.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := dst.CreateTable(name, st.Schema)
		if err != nil {
			t.Fatal(err)
		}
		err = st.Heap.Scan(func(_ storage.RID, r storage.Row) error {
			_, err := dt.Heap.Insert(r)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCanonicalizeInsensitivity(t *testing.T) {
	s1 := algebra.Schema{{Col: algebra.Col("r", "a"), Typ: algebra.TInt}, {Col: algebra.Col("r", "b"), Typ: algebra.TInt}}
	s2 := algebra.Schema{{Col: algebra.Col("r", "b"), Typ: algebra.TInt}, {Col: algebra.Col("r", "a"), Typ: algebra.TInt}}
	r1 := []storage.Row{{algebra.IntVal(1), algebra.IntVal(2)}, {algebra.IntVal(3), algebra.IntVal(4)}}
	r2 := []storage.Row{{algebra.IntVal(4), algebra.IntVal(3)}, {algebra.IntVal(2), algebra.IntVal(1)}}
	c1, c2 := Canonicalize(s1, r1), Canonicalize(s2, r2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("canonical forms differ: %v vs %v", c1, c2)
		}
	}
}

// TestEqualRowsAcrossRoundingBoundary is the regression test for comparing
// against Reference through Canonicalize: SSB Q3.1 summed one group to
// 2164324.95264 under one plan and to 2164324.952641 under another, the same
// terms in another order, and the fixed-digit rendering told them apart.
func TestEqualRowsAcrossRoundingBoundary(t *testing.T) {
	ab := algebra.Schema{{Col: algebra.Col("q", "nation"), Typ: algebra.TString}, {Col: algebra.Col("q", "rev"), Typ: algebra.TFloat}}
	ba := algebra.Schema{ab[1], ab[0]}
	row := func(nation string, rev float64) storage.Row {
		return storage.Row{algebra.StringVal(nation), algebra.FloatVal(rev)}
	}
	one := QueryResult{ab, []storage.Row{row("CHINA", 2164324.95264), row("INDIA", 7)}}
	other := QueryResult{ba, []storage.Row{{algebra.FloatVal(7), algebra.StringVal("INDIA")}, {algebra.FloatVal(2164324.952641), algebra.StringVal("CHINA")}}}
	if c1, c2 := Canonicalize(one.Schema, one.Rows), Canonicalize(other.Schema, other.Rows); slices.Equal(c1, c2) {
		t.Errorf("Canonicalize no longer tells the pair apart (%v); this test needs another pair", c1)
	}
	if !EqualRows(one, other, 1e-9) {
		t.Error("EqualRows at 1e-9 tells two orders of one sum apart")
	}
	for what, wrong := range map[string]QueryResult{
		"another float":   {ab, []storage.Row{row("CHINA", 2164324.96), row("INDIA", 7)}},
		"another string":  {ab, []storage.Row{row("CHINA", 2164324.95264), row("JAPAN", 7)}},
		"a missing row":   {ab, []storage.Row{row("CHINA", 2164324.95264)}},
		"a repeated row":  {ab, []storage.Row{row("CHINA", 2164324.95264), row("CHINA", 2164324.95264)}},
		"a renamed field": {algebra.Schema{ab[0], {Col: algebra.Col("q", "cost"), Typ: algebra.TFloat}}, one.Rows},
	} {
		if EqualRows(one, wrong, 1e-9) {
			t.Errorf("EqualRows missed %s", what)
		}
	}
}

// TestEqualRowsNaNAndInfinities: at any tolerance a NaN equals a NaN, of
// any payload, and nothing else, and an infinity equals only itself. A
// difference of NaN or infinity is not "more than relTol", so a check
// written as one called a NaN row equal to a 1.0 row.
func TestEqualRowsNaNAndInfinities(t *testing.T) {
	schema := algebra.Schema{{Col: algebra.Col("q", "x"), Typ: algebra.TFloat}}
	one := func(f float64) QueryResult { return QueryResult{schema, []storage.Row{{algebra.FloatVal(f)}}} }
	nan, inf := math.NaN(), math.Inf(1)
	for _, tol := range []float64{0, 1e-9} {
		for _, c := range []struct {
			a, b  float64
			equal bool
		}{
			{nan, nan, true}, {nan, negNaN, true}, {inf, inf, true}, {-inf, -inf, true}, {0, math.Copysign(0, -1), true},
			{nan, 1, false}, {1, nan, false}, {nan, inf, false}, {inf, 1, false}, {1, -inf, false},
			{inf, -inf, false}, {inf, math.MaxFloat64, false}, {math.MaxFloat64, -math.MaxFloat64, false},
		} {
			if got := EqualRows(one(c.a), one(c.b), tol); got != c.equal {
				t.Errorf("EqualRows(%v, %v) at %g = %v, want %v", c.a, c.b, tol, got, c.equal)
			}
		}
	}
}

// TestReferenceGroupsByCompare: the oracle groups rows whose group-by values
// Compare equal, as SortAgg does. 0.0, -0.0 and the int 0 are one group,
// NaNs of two payloads another, the int 1 and the date 1 a third. Grouping
// by the values' rendering made the zeros two groups.
func TestReferenceGroupsByCompare(t *testing.T) {
	schema := algebra.Schema{{Col: algebra.Col("t", "g"), Typ: algebra.TFloat}, {Col: algebra.Col("t", "v"), Typ: algebra.TInt}}
	keys := []algebra.Value{algebra.FloatVal(0), algebra.FloatVal(math.Copysign(0, -1)), algebra.IntVal(0), algebra.FloatVal(math.NaN()),
		algebra.IntVal(1), algebra.FloatVal(negNaN), algebra.DateVal(1), algebra.FloatVal(0)}
	rows := make([]storage.Row, len(keys))
	for i, k := range keys {
		rows[i] = storage.Row{k, algebra.IntVal(int64(i))}
	}
	db := storage.NewDB(16)
	loadTable(t, db, "t", schema, rows)
	groupBy := []algebra.Column{algebra.Col("t", "g")}
	aggs := []algebra.AggExpr{{Func: algebra.CountAll, As: algebra.Col("", "n")}, {Func: algebra.Sum, Arg: algebra.ColOf("t", "v"), As: algebra.Col("", "s")}}
	got, gotSchema, err := Reference(db, algebra.AggT(groupBy, aggs, algebra.ScanT("t")), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := QueryResult{gotSchema, []storage.Row{ // each group's key is its first row's
		{algebra.FloatVal(0), algebra.IntVal(4), algebra.FloatVal(0 + 1 + 2 + 7)},
		{algebra.FloatVal(math.NaN()), algebra.IntVal(2), algebra.FloatVal(3 + 5)},
		{algebra.IntVal(1), algebra.IntVal(2), algebra.FloatVal(4 + 6)},
	}}
	if !EqualRows(QueryResult{gotSchema, got}, want, 0) {
		t.Errorf("Reference grouped %v, want %v", got, want.Rows)
	}
	agg, err := newSortAgg(sortOn(&sliceIter{rows: rows, schema: schema}, groupBy...), groupBy, aggs, gotSchema)
	if err != nil {
		t.Fatal(err)
	}
	if sorted := mustDrain(t, agg); !EqualRows(QueryResult{gotSchema, sorted}, want, 0) {
		t.Errorf("SortAgg grouped %v, want %v", sorted, want.Rows)
	}
}

func TestReferenceFailsOnUnknownTable(t *testing.T) {
	db := storage.NewDB(64)
	if _, _, err := Reference(db, algebra.ScanT("nope"), nil); err == nil {
		t.Error("expected error for unknown table")
	}
}

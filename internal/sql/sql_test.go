package sql

import (
	"context"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

func testCat() *catalog.Catalog {
	cat := catalog.New()
	for _, n := range []string{"r", "s", "t"} {
		cat.Add(&catalog.Table{
			Name: n, Rows: 1000,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", 1000),
				catalog.IntCol("fk", 100),
				catalog.IntColRange("num", 100, 1, 100),
				catalog.StrCol("name", 10, 50),
			},
		})
	}
	return cat
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a.b, 'it''s', 3.5, ?p FROM t WHERE x <= 10")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, "|")
	if !strings.Contains(joined, "it's") {
		t.Errorf("escaped quote not handled: %s", joined)
	}
	if !strings.Contains(joined, "3.5") || !strings.Contains(joined, "<=") {
		t.Errorf("lexing wrong: %s", joined)
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex("SELECT @x"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	tree, err := Parse(testCat(), "SELECT id, num FROM r WHERE num >= 90")
	if err != nil {
		t.Fatal(err)
	}
	// Shape: Project over Select over Scan.
	if _, ok := tree.Op.(algebra.Project); !ok {
		t.Fatalf("root is %T, want Project", tree.Op)
	}
	if _, ok := tree.Inputs[0].Op.(algebra.Select); !ok {
		t.Fatalf("child is %T, want Select", tree.Inputs[0].Op)
	}
}

func TestParseJoinPlacement(t *testing.T) {
	tree, err := Parse(testCat(),
		"SELECT * FROM r, s, t WHERE r.fk = s.id AND s.fk = t.id AND r.num >= 50")
	if err != nil {
		t.Fatal(err)
	}
	// Selection pushed to r's scan; joins connected without cross products.
	joins, selects, scans := 0, 0, 0
	var walk func(n *algebra.Tree)
	walk = func(n *algebra.Tree) {
		switch op := n.Op.(type) {
		case algebra.Join:
			joins++
			if op.Pred.IsTrue() {
				t.Error("cross product generated for a connected query")
			}
		case algebra.Select:
			selects++
		case algebra.Scan:
			scans++
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(tree)
	if joins != 2 || scans != 3 || selects != 1 {
		t.Errorf("shape: %d joins, %d scans, %d selects; want 2, 3, 1", joins, scans, selects)
	}
}

func TestParseAggregates(t *testing.T) {
	tree, err := Parse(testCat(),
		"SELECT num, SUM(id * 2) AS total, COUNT(*) AS n FROM r GROUP BY num")
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := tree.Op.(algebra.Aggregate)
	if !ok {
		t.Fatalf("root is %T, want Aggregate", tree.Op)
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Errorf("agg shape: %d group-by, %d aggs", len(agg.GroupBy), len(agg.Aggs))
	}
	if agg.Aggs[0].As.Name != "total" || agg.Aggs[1].Func != algebra.CountAll {
		t.Error("aggregate outputs wrong")
	}
}

func TestParseParam(t *testing.T) {
	tree, err := Parse(testCat(), "SELECT * FROM r WHERE id = ?k")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := tree.Op.(algebra.Select)
	if !ok {
		t.Fatalf("root is %T, want Select", tree.Op)
	}
	if !sel.Pred.HasParam() {
		t.Error("parameter lost in lowering")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT FROM r",
		"SELECT * FROM nope",
		"SELECT * FROM r WHERE bogus = 1",
		"SELECT * FROM r, s WHERE id = 1",        // ambiguous column
		"SELECT num FROM r GROUP BY num",         // group by without aggregates
		"SELECT id, SUM(num) FROM r GROUP BY fk", // id not in group by
		"SELECT * FROM r AS a, s AS a",           // duplicate alias
		"SELECT * FROM r WHERE id >",             // dangling comparison
	}
	for _, src := range cases {
		if _, err := Parse(testCat(), src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseBatchMultipleStatements(t *testing.T) {
	batch, err := ParseBatch(testCat(),
		"SELECT * FROM r WHERE num >= 90; SELECT * FROM r WHERE num >= 80;")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("got %d statements, want 2", len(batch))
	}
}

// TestSQLEndToEnd parses a sharable batch against the TPC-D catalog,
// optimizes it, executes it, and compares with the reference evaluator.
func TestSQLEndToEnd(t *testing.T) {
	const sf = 0.0005
	db := storage.NewDB(1024)
	if err := tpcd.LoadDB(db, sf, 3); err != nil {
		t.Fatal(err)
	}
	cat := tpcd.Catalog(sf)
	batch, err := ParseBatch(cat, `
		SELECT nname, SUM(lprice * (1 - ldisc)) AS revenue
		FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 1200
		GROUP BY nname;
		SELECT nname, COUNT(*) AS n
		FROM lineitem, supplier, nation
		WHERE lsk = sk AND snk = nk AND lship > 1500
		GROUP BY nname`)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.DefaultModel()
	want := make([]exec.QueryResult, len(batch))
	for i, q := range batch {
		rows, schema, err := exec.Reference(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = exec.QueryResult{Schema: schema, Rows: rows}
	}
	pd, err := core.BuildDAG(cat, model, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.Volcano, core.Greedy} {
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := exec.Run(context.Background(), db, model, res.Plan, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i, qr := range results {
			if !exec.EqualRows(qr, want[i], 1e-9) {
				t.Fatalf("%v query %d: %d rows differ from the reference's %d", alg, i, len(qr.Rows), len(want[i].Rows))
			}
		}
	}
}

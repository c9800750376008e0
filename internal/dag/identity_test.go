package dag

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/sql"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// identityBatch is one batch of the identity tests and benchmarks, with the
// size its expanded DAG had when expression identities were rendered
// strings. The first eleven are the benchmark's opt_scaleup batches.
type identityBatch struct {
	name    string
	cat     *catalog.Catalog
	queries []*algebra.Tree
	groups  int // len(LiveGroups()) after Expand, Subsume, Expand, Finalize
	exprs   int // NumExprs() then
}

// fuzzOptimizeSeedSQL is what internal/core's genBatch makes of the seeds
// FuzzOptimize commits with f.Add, over fuzzOptimizeCatalog.
var fuzzOptimizeSeedSQL = []string{
	"SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 1 AND D1.band <= 1 AND D1.grp = 1 GROUP BY D1.grp",
	"SELECT * FROM R; SELECT * FROM R, S, T WHERE R.fk = S.id AND S.fk = T.id AND R.id >= 1",
	"SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 10 AND D1.band <= 10 AND D1.grp = 2 GROUP BY D1.grp; SELECT * FROM R WHERE R.id >= 1; SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 1 AND D1.band <= 1 AND D1.grp = 1 GROUP BY D1.grp",
	"SELECT R.fk, MIN(S.fk) AS a FROM R, S WHERE R.fk = S.id AND R.fk > 17 GROUP BY R.fk",
	"SELECT S.num, SUM(R.id) AS a FROM S, R WHERE S.fk = R.id GROUP BY S.num",
	"SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 11 AND D1.band <= 16 AND D1.grp = 3 GROUP BY D1.grp; SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 1 AND D1.band <= 1 AND D1.grp = 1 GROUP BY D1.grp",
	"SELECT D1.grp, MAX(F.v) AS a FROM F, D1, D2 WHERE F.d1 = D1.id AND F.d2 = D2.id AND D1.band >= 41 AND D1.band <= 60 GROUP BY D1.grp; SELECT D1.grp, SUM(F.v) AS a FROM F, D1, D2, D3 WHERE F.d1 = D1.id AND F.d2 = D2.id AND F.d3 = D3.id AND D1.band >= 8 AND D1.band <= 8 AND D2.grp = 5 GROUP BY D1.grp; SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 1 AND D1.band <= 1 AND D1.grp = 1 GROUP BY D1.grp",
	"SELECT P.id FROM P, R, S WHERE P.fk = R.id AND R.fk = S.id AND P.id = 2",
	"SELECT D3.grp, SUM(F.v) AS a FROM F, D1, D2, D3 WHERE F.d1 = D1.id AND F.d2 = D2.id AND F.d3 = D3.id AND D2.band >= 34 AND D2.band <= 42 AND D3.grp = 1 GROUP BY D3.grp; SELECT D1.grp, SUM(F.v) AS a FROM F, D1, D2 WHERE F.d1 = D1.id AND F.d2 = D2.id AND D2.band >= 2 AND D2.band <= 3 AND D1.grp = 1 GROUP BY D1.grp; SELECT D1.grp, SUM(F.v) AS a FROM F, D1 WHERE F.d1 = D1.id AND D1.band >= 1 AND D1.band <= 1 AND D1.grp = 1 GROUP BY D1.grp",
}

// fuzzOptimizeCatalog mirrors internal/core's catalog of the same name.
func fuzzOptimizeCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, n := range []string{"R", "S", "T", "P", "U"} {
		cat.Add(&catalog.Table{
			Name: n,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", 50000),
				catalog.IntCol("fk", 5000),
				catalog.IntColRange("num", 1000, 1, 1000),
			},
			Rows: 50000,
		})
	}
	for i := 1; i <= 3; i++ {
		cat.Add(&catalog.Table{
			Name: fmt.Sprintf("D%d", i),
			Cols: []catalog.ColDef{
				catalog.IntCol("id", 10000),
				catalog.IntColRange("band", 100, 1, 100),
				catalog.IntColRange("grp", 25, 1, 25),
			},
			Rows: 10000,
		})
	}
	cat.Add(&catalog.Table{
		Name: "F",
		Cols: []catalog.ColDef{
			catalog.IntCol("id", 1000000),
			catalog.IntCol("d1", 10000),
			catalog.IntCol("d2", 10000),
			catalog.IntCol("d3", 10000),
			catalog.IntColRange("v", 1000, 1, 1000),
		},
		Rows: 1000000,
	})
	return cat
}

func identityBatches(tb testing.TB) []identityBatch {
	tb.Helper()
	var out []identityBatch
	for i := 1; i <= 5; i++ {
		out = append(out, identityBatch{name: "BQ" + strconv.Itoa(i), cat: tpcd.Catalog(1), queries: tpcd.BatchQueries(i)})
	}
	for i := 1; i <= 5; i++ {
		out = append(out, identityBatch{name: "CQ" + strconv.Itoa(i), cat: psp.Catalog(1), queries: psp.CQ(i)})
	}
	out = append(out,
		identityBatch{name: "BQ5x6", cat: tpcd.TenantCatalog(1, 6), queries: tpcd.TenantBatch(5, 6)},
		identityBatch{name: "SSBAll", cat: ssb.Catalog(1), queries: ssb.AllFlights()},
		identityBatch{name: "Q2", cat: tpcd.Catalog(1), queries: tpcd.Q2(1)},
		identityBatch{name: "Q2NI", cat: tpcd.Catalog(1), queries: tpcd.Q2NI(1)},
		identityBatch{name: "Q2D", cat: tpcd.Catalog(1), queries: tpcd.Q2D()},
		identityBatch{name: "Q11", cat: tpcd.Catalog(1), queries: []*algebra.Tree{tpcd.Q11()}},
		identityBatch{name: "Q15", cat: tpcd.Catalog(1), queries: []*algebra.Tree{tpcd.Q15()}},
	)
	fuzzCat := fuzzOptimizeCatalog()
	for i, text := range fuzzOptimizeSeedSQL {
		qs, err := sql.ParseBatch(fuzzCat, text)
		if err != nil {
			tb.Fatalf("fuzz seed %d: %v", i, err)
		}
		out = append(out, identityBatch{name: "fuzz" + strconv.Itoa(i), cat: fuzzCat, queries: qs})
	}
	for i := range out {
		size, ok := identitySizes[out[i].name]
		if !ok {
			tb.Fatalf("no recorded size for %s", out[i].name)
		}
		out[i].groups, out[i].exprs = size[0], size[1]
	}
	return out
}

// identitySizes records {live groups, expressions} of every batch's expanded
// DAG: a change to them changes plans. The first eleven sum to the 2,000
// groups and 8,246 expressions the benchmark's opt_scaleup reports per
// algorithm sweep.
var identitySizes = map[string][2]int{
	"BQ1": {17, 31}, "BQ2": {67, 313}, "BQ3": {100, 449}, "BQ4": {122, 532}, "BQ5": {137, 573},
	"CQ1": {36, 127}, "CQ2": {92, 355}, "CQ3": {148, 583}, "CQ4": {204, 811}, "CQ5": {260, 1039},
	"BQ5x6":  {817, 3433},
	"SSBAll": {124, 378},
	"Q2":     {26, 69}, "Q2NI": {26, 69}, "Q2D": {28, 98}, "Q11": {13, 23}, "Q15": {12, 20},
	"fuzz0": {6, 7}, "fuzz1": {8, 13}, "fuzz2": {11, 13}, "fuzz3": {6, 7}, "fuzz4": {5, 6},
	"fuzz5": {9, 11}, "fuzz6": {23, 46}, "fuzz7": {9, 14}, "fuzz8": {24, 47},
}

// build takes a batch through the steps core.BuildDAG takes.
func (b identityBatch) build(tb testing.TB) *DAG {
	tb.Helper()
	return b.buildWith(tb, (*DAG).Expand)
}

// buildWith is build with expand in Expand's place.
func (b identityBatch) buildWith(tb testing.TB, expand func(*DAG) error) *DAG {
	tb.Helper()
	d := New(cost.Estimator{Cat: b.cat})
	for _, q := range b.queries {
		if _, err := d.AddQuery(q); err != nil {
			tb.Fatalf("%s: AddQuery: %v", b.name, err)
		}
	}
	run := func() error { return expand(d) }
	for _, step := range []func() error{run, d.Subsume, run} {
		if err := step(); err != nil {
			tb.Fatalf("%s: %v", b.name, err)
		}
	}
	if _, err := d.Finalize(); err != nil {
		tb.Fatalf("%s: Finalize: %v", b.name, err)
	}
	return d
}

// rendering is the identity expressions had before they were interned: the
// operator's canonical rendering applied to its input groups' IDs.
func rendering(e *Expr) string {
	var b strings.Builder
	b.WriteString(e.Op.Fingerprint())
	b.WriteByte('(')
	for i, c := range e.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(c.Find().ID)))
	}
	b.WriteByte(')')
	return b.String()
}

// checkIdentities asserts that over d's live expressions interned keys and
// renderings induce the same equality — of whole expressions, none of which
// may occur twice, and of their operators, which recur under other inputs.
func checkIdentities(t *testing.T, d *DAG) {
	t.Helper()
	byKey := map[exprKey]string{}
	byRendering := map[string]exprKey{}
	type operator struct {
		kind opKind
		op   uint32
	}
	opRendering := map[operator]string{}
	opInterned := map[string]operator{}
	for _, g := range d.LiveGroups() {
		for _, e := range g.Exprs {
			r := rendering(e)
			if d.table[e.key] != e || e.dropped {
				t.Errorf("expression %s in group %d is not the table's", r, g.ID)
			}
			if e.key != d.in.key(e.key.kind, e.key.op, e.Children) {
				t.Errorf("expression %s: key %+v is stale", r, e.key)
			}
			if other, dup := byKey[e.key]; dup {
				t.Errorf("key %+v occurs twice: %s and %s", e.key, other, r)
			}
			if other, dup := byRendering[r]; dup {
				t.Errorf("rendering %s occurs twice: keys %+v and %+v", r, other, e.key)
			}
			byKey[e.key] = r
			byRendering[r] = e.key
			if e.key.kind == kindNoOp { // its key's op is its inputs
				continue
			}
			o, fp := operator{e.key.kind, e.key.op}, e.Op.Fingerprint()
			if other, ok := opRendering[o]; ok && other != fp {
				t.Errorf("operator %+v stands for both %s and %s", o, other, fp)
			}
			if other, ok := opInterned[fp]; ok && other != o {
				t.Errorf("operator %s is interned as both %+v and %+v", fp, other, o)
			}
			opRendering[o], opInterned[fp] = fp, o
		}
	}
	if len(byKey) != len(d.table) {
		t.Errorf("%d live expressions, table holds %d", len(byKey), len(d.table))
	}
}

// TestInternedIdentityMatchesRendering builds every batch and checks that
// the interned keys identify exactly what the renderings identified, and
// that the DAG is the size it was under string identities.
func TestInternedIdentityMatchesRendering(t *testing.T) {
	var groups, exprs int
	for i, b := range identityBatches(t) {
		d := b.build(t)
		checkIdentities(t, d)
		g, e := len(d.LiveGroups()), d.NumExprs()
		if g != b.groups || e != b.exprs {
			t.Errorf("%s: %d groups / %d exprs, recorded %d / %d", b.name, g, e, b.groups, b.exprs)
		}
		if d.Derivations-d.Duplicates < e {
			t.Errorf("%s: %d derivations less %d duplicates cannot leave %d expressions", b.name, d.Derivations, d.Duplicates, e)
		}
		if i < 11 {
			groups, exprs = groups+g, exprs+e
		}
	}
	if groups != 2000 || exprs != 8246 {
		t.Errorf("opt_scaleup batches sum to %d groups / %d exprs, want 2000 / 8246", groups, exprs)
	}
}

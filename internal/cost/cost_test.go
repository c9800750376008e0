package cost

import (
	"math"
	"testing"
	"testing/quick"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
)

func testEstimator() Estimator {
	cat := catalog.New()
	cat.Add(&catalog.Table{
		Name: "t", Rows: 10000,
		Cols: []catalog.ColDef{
			catalog.IntCol("id", 10000),
			catalog.IntColRange("num", 100, 1, 100),
			catalog.StrCol("name", 16, 500),
		},
	})
	cat.Add(&catalog.Table{
		Name: "u", Rows: 2000,
		Cols: []catalog.ColDef{catalog.IntCol("id", 2000), catalog.IntColRange("fk", 10000, 1, 10000)},
	})
	return Estimator{Cat: cat}
}

func TestModelBasics(t *testing.T) {
	m := DefaultModel()
	if m.Blocks(0, 100) != 0 {
		t.Error("empty relation should occupy no blocks")
	}
	if m.Blocks(1, 1) != 1 {
		t.Error("non-empty relation occupies at least one block")
	}
	if m.ScanCost(100) <= m.ScanCost(10) {
		t.Error("scan cost must grow with size")
	}
	if m.WriteCost(100) <= m.ScanCost(100)/2 {
		t.Error("writes cost twice reads per block in the paper's model")
	}
}

func TestSortCostRegimes(t *testing.T) {
	m := DefaultModel()
	inMem := m.SortCost(100, 2500)
	external := m.SortCost(10000, 250000)
	if inMem >= external {
		t.Error("external sort must cost more than in-memory sort")
	}
	// In-memory sorting is CPU-only: far below one pass of I/O.
	if inMem > 10000*m.ReadS {
		t.Errorf("in-memory sort cost %v looks like it pays I/O", inMem)
	}
	if external < 10000*(m.ReadS+m.WriteS) {
		t.Error("external sort must pay at least one read+write pass")
	}
}

func TestBlockNLJoinRegimes(t *testing.T) {
	m := DefaultModel()
	small := m.BlockNLJoinCost(100, 100, 50, 2500, 2500)
	big := m.BlockNLJoinCost(5000, 5000, 1000, 125000, 125000)
	if small >= big {
		t.Error("bigger NL join must cost more")
	}
	// Quadratic tuple CPU: doubling both inputs roughly quadruples CPU.
	a := m.BlockNLJoinCost(10, 10, 1, 10000, 10000)
	b := m.BlockNLJoinCost(10, 10, 1, 20000, 20000)
	if b < 3.5*a {
		t.Errorf("NL join tuple cost not quadratic: %v vs %v", a, b)
	}
}

func TestMergeVsNLJoin(t *testing.T) {
	m := DefaultModel()
	// For large inputs, merge join (given sorted inputs) must beat NL join.
	mj := m.MergeJoinCost(1000, 1000, 500, 25000, 25000, 12000)
	nl := m.BlockNLJoinCost(1000, 1000, 500, 25000, 25000)
	if mj >= nl {
		t.Errorf("merge join (%v) should beat NL join (%v) on large inputs", mj, nl)
	}
}

func TestSelectivityBounds(t *testing.T) {
	e := testEstimator()
	base, err := e.BaseRel("t", "t")
	if err != nil {
		t.Fatal(err)
	}
	cases := []algebra.Predicate{
		algebra.Cmp(algebra.Col("t", "num"), algebra.EQ, algebra.IntVal(5)),
		algebra.Cmp(algebra.Col("t", "num"), algebra.GE, algebra.IntVal(50)),
		algebra.Cmp(algebra.Col("t", "num"), algebra.LT, algebra.IntVal(10)),
		algebra.Cmp(algebra.Col("t", "name"), algebra.EQ, algebra.StringVal("x")),
		algebra.CmpParam(algebra.Col("t", "id"), algebra.EQ, "p"),
		algebra.OrValues(algebra.Col("t", "num"), algebra.EQ,
			[]algebra.Value{algebra.IntVal(1), algebra.IntVal(2)}),
	}
	for i, p := range cases {
		s := e.Selectivity(base, p)
		if s < 0 || s > 1 {
			t.Errorf("case %d: selectivity %v out of [0,1]", i, s)
		}
	}
	// Range selectivity uses the column range: num >= 51 on [1,100] ≈ 0.5.
	s := e.Selectivity(base, algebra.Cmp(algebra.Col("t", "num"), algebra.GE, algebra.IntVal(51)))
	if s < 0.4 || s > 0.6 {
		t.Errorf("range selectivity %v, want ≈0.5", s)
	}
}

func TestSelectivityMonotoneInConstant(t *testing.T) {
	e := testEstimator()
	base, _ := e.BaseRel("t", "t")
	f := func(a, b uint8) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		sLo := e.Selectivity(base, algebra.Cmp(algebra.Col("t", "num"), algebra.GE, algebra.IntVal(lo)))
		sHi := e.Selectivity(base, algebra.Cmp(algebra.Col("t", "num"), algebra.GE, algebra.IntVal(hi)))
		return sLo >= sHi-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplySelectAndJoin(t *testing.T) {
	e := testEstimator()
	tRel, _ := e.BaseRel("t", "t")
	uRel, _ := e.BaseRel("u", "u")

	sel := e.ApplySelect(tRel, algebra.Cmp(algebra.Col("t", "num"), algebra.EQ, algebra.IntVal(7)))
	if sel.Rows >= tRel.Rows || sel.Rows <= 0 {
		t.Errorf("selection rows %v not reduced from %v", sel.Rows, tRel.Rows)
	}
	if st, _ := sel.ColStat(algebra.Col("t", "num")); st.Distinct != 1 {
		t.Errorf("equality should pin distinct=1, got %v", st.Distinct)
	}

	join := e.ApplyJoin(tRel, uRel, algebra.ColEq(algebra.Col("u", "fk"), algebra.Col("t", "id")))
	// FK join: |u| rows expected.
	if math.Abs(join.Rows-uRel.Rows) > uRel.Rows*0.5 {
		t.Errorf("FK join rows %v, want ≈%v", join.Rows, uRel.Rows)
	}
	if join.Width != tRel.Width+uRel.Width {
		t.Error("join width must be sum of input widths")
	}
	cross := e.ApplyJoin(tRel, uRel, algebra.TruePred())
	if cross.Rows != tRel.Rows*uRel.Rows {
		t.Errorf("cross join rows %v, want %v", cross.Rows, tRel.Rows*uRel.Rows)
	}
}

func TestApplyAggregate(t *testing.T) {
	e := testEstimator()
	tRel, _ := e.BaseRel("t", "t")
	agg := algebra.Aggregate{
		GroupBy: []algebra.Column{algebra.Col("t", "num")},
		Aggs:    []algebra.AggExpr{{Func: algebra.Sum, Arg: algebra.ColOf("t", "id"), As: algebra.Col("q", "s")}},
	}
	out := e.ApplyAggregate(tRel, agg)
	if out.Rows != 100 {
		t.Errorf("group count %v, want 100 (distinct num)", out.Rows)
	}
	scalar := e.ApplyAggregate(tRel, algebra.Aggregate{Aggs: agg.Aggs})
	if scalar.Rows != 1 {
		t.Errorf("scalar aggregate rows %v, want 1", scalar.Rows)
	}
}

func TestIndexProbeAndBuildCosts(t *testing.T) {
	m := DefaultModel()
	if m.IndexProbeCost(0, 1, 8, true) != 0 {
		t.Error("zero probes cost zero")
	}
	few := m.IndexProbeCost(10, 1, 100, true)
	many := m.IndexProbeCost(10000, 1, 100, true)
	if few >= many {
		t.Error("probe cost must grow with probes")
	}
	uncl := m.IndexProbeCost(100, 50, 100, false)
	cl := m.IndexProbeCost(100, 50, 100, true)
	if uncl <= cl {
		t.Error("unclustered matches must cost more than clustered")
	}
	if m.IndexBuildCost(100000, 8) <= 0 {
		t.Error("index build must cost something")
	}
}

func TestEq(t *testing.T) {
	cases := []struct {
		a, b Cost
		want bool
	}{
		{1, 1, true},
		{1, 1 + Tolerance/2, true},
		{1, 1 - Tolerance/2, true},
		{1, 1 + 2*Tolerance, false},
		{0, Tolerance * 1.5, false},
		{-1, 1, false},
	}
	for i, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("case %d: Eq(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := Eq(c.b, c.a); got != c.want {
			t.Errorf("case %d: Eq(%v, %v) = %v, want %v (asymmetric)", i, c.b, c.a, got, c.want)
		}
	}
}

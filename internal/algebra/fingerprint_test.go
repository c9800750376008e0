package algebra_test

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// The referee: the string renderer the append form replaced, kept as it was
// (strings built by concatenation, sort.Strings over whole renderings). The
// memo, the result cache and dag.CanonicalFingerprints key on these bytes,
// so the append form must reproduce them exactly.

func refValue(v algebra.Value) string {
	switch v.Typ {
	case algebra.TInt:
		return strconv.FormatInt(v.I, 10)
	case algebra.TDate:
		return "d" + strconv.FormatInt(v.I, 10)
	case algebra.TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case algebra.TString:
		return strconv.Quote(v.S)
	}
	return "?"
}

func refColumn(c algebra.Column) string { return c.Rel + "." + c.Name }

func refScalar(s algebra.Scalar) string {
	switch e := s.(type) {
	case algebra.ColExpr:
		return refColumn(e.C)
	case algebra.ConstExpr:
		return refValue(e.V)
	case algebra.ParamExpr:
		return "?" + e.Name
	case algebra.BinExpr:
		return "(" + refScalar(e.L) + e.Op.String() + refScalar(e.R) + ")"
	}
	panic("referee: unknown scalar")
}

func refComparison(c algebra.Comparison) string {
	l, r := refScalar(c.L), refScalar(c.R)
	op := c.Op
	if r < l {
		l, r = r, l
		op = op.Flip()
	}
	return l + op.String() + r
}

func refClause(cl algebra.Clause) string {
	parts := make([]string, len(cl.Disj))
	for i, c := range cl.Disj {
		parts[i] = refComparison(c)
	}
	sort.Strings(parts)
	return strings.Join(parts, " OR ")
}

func refPredicate(p algebra.Predicate) string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.Conj))
	for i, cl := range p.Conj {
		s := refClause(cl)
		if len(cl.Disj) > 1 {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

func refAggExpr(a algebra.AggExpr) string {
	arg := "*"
	if a.Arg != nil {
		arg = refScalar(a.Arg)
	}
	return a.Func.String() + "(" + arg + ") as " + refColumn(a.As)
}

func refOp(op algebra.Op) string {
	switch o := op.(type) {
	case algebra.Scan:
		return "scan(" + o.Table + " as " + o.Alias + ")"
	case algebra.Select:
		return "select[" + refPredicate(o.Pred) + "]"
	case algebra.Join:
		return "join[" + refPredicate(o.Pred) + "]"
	case algebra.Aggregate:
		gb := make([]string, len(o.GroupBy))
		for i, c := range o.GroupBy {
			gb[i] = refColumn(c)
		}
		sort.Strings(gb)
		ag := make([]string, len(o.Aggs))
		for i, e := range o.Aggs {
			ag[i] = refAggExpr(e)
		}
		sort.Strings(ag)
		return "agg[" + strings.Join(gb, ",") + "][" + strings.Join(ag, ",") + "]"
	case algebra.Project:
		parts := make([]string, len(o.Exprs))
		for i, e := range o.Exprs {
			parts[i] = refScalar(e.Expr) + " as " + refColumn(e.As)
		}
		return "project[" + strings.Join(parts, ",") + "]"
	case algebra.NoOp:
		return "noop/" + strconv.Itoa(o.NInputs)
	case algebra.Invoke:
		return "invoke/" + strconv.FormatInt(o.Times, 10)
	}
	panic("referee: unknown operator")
}

func refTree(t *algebra.Tree) string {
	var b strings.Builder
	b.WriteString(refOp(t.Op))
	b.WriteByte('(')
	for i, in := range t.Inputs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(refTree(in))
	}
	b.WriteByte(')')
	return b.String()
}

// appender is what renders in append form.
type appender interface {
	Fingerprint() string
	AppendFingerprint(dst []byte) []byte
}

// checkRendering holds x's Fingerprint, and its append form after an empty
// buffer and after a prefix, to the referee's want.
func checkRendering(t *testing.T, name string, x appender, want string) {
	t.Helper()
	if got := x.Fingerprint(); got != want {
		t.Errorf("%s: Fingerprint\n got %q\nwant %q", name, got, want)
	}
	const prefix = "earlier key;"
	if got := string(x.AppendFingerprint([]byte(prefix))); got != prefix+want {
		t.Errorf("%s: AppendFingerprint after a prefix\n got %q\nwant %q", name, got, prefix+want)
	}
}

// checkTree checks a tree, every operator in it and every predicate,
// clause, comparison and aggregate those operators hold.
func checkTree(t *testing.T, name string, tr *algebra.Tree) {
	t.Helper()
	checkRendering(t, name, tr, refTree(tr))
	var walk func(n *algebra.Tree)
	walk = func(n *algebra.Tree) {
		checkRendering(t, name+" "+n.Op.String(), n.Op, refOp(n.Op))
		var preds []algebra.Predicate
		switch o := n.Op.(type) {
		case algebra.Select:
			preds = append(preds, o.Pred)
		case algebra.Join:
			preds = append(preds, o.Pred)
		case algebra.Aggregate:
			for _, a := range o.Aggs {
				checkRendering(t, name+" aggregate", a, refAggExpr(a))
			}
		}
		for _, p := range preds {
			checkRendering(t, name+" predicate", p, refPredicate(p))
			for _, cl := range p.Conj {
				checkRendering(t, name+" clause", cl, refClause(cl))
				for _, c := range cl.Disj {
					checkRendering(t, name+" comparison", c, refComparison(c))
				}
			}
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(tr)
}

// TestAppendFingerprintMatchesReferee holds the append-form renderer to the
// string renderer it replaced, byte for byte, over every workload's trees,
// two generators of random batches and hand-made edge cases.
func TestAppendFingerprintMatchesReferee(t *testing.T) {
	batches := map[string][]*algebra.Tree{"Q2-NI": tpcd.Q2NI(1), "Q2": tpcd.Q2(1), "Q2D": tpcd.Q2D()}
	for i := 1; i <= 5; i++ {
		batches["BQ"+strconv.Itoa(i)] = tpcd.BatchQueries(i)
		batches["CQ"+strconv.Itoa(i)] = psp.CQ(i)
	}
	batches["BQ5x6"] = tpcd.TenantBatch(5, 6)
	batches["SSB"] = ssb.AllFlights()
	for f := 1; f <= ssb.NumFlights; f++ {
		for s, step := range ssb.DrillDown(f, ssb.MaxDrillSteps) {
			batches["SSB drill "+strconv.Itoa(f)+"."+strconv.Itoa(s)] = step
		}
	}
	batches["SSB parameterized drill"] = ssb.DrillParam(12)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for i := range 50 {
			batches["dag random "+strconv.FormatInt(seed, 10)+"/"+strconv.Itoa(i)] = dagRandomBatch(rng)
			batches["core random "+strconv.FormatInt(seed, 10)+"/"+strconv.Itoa(i)] = coreRandomBatch(rng)
		}
	}
	for name, batch := range batches {
		for i, tr := range batch {
			checkTree(t, name+" query "+strconv.Itoa(i), tr)
		}
	}

	x, y, z := algebra.Col("t", "x"), algebra.Col("t", "y"), algebra.Col("a", "z")
	cmp := func(l algebra.Scalar, op algebra.CmpOp, r algebra.Scalar) algebra.Comparison {
		return algebra.Comparison{L: l, Op: op, R: r}
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1e21, 1e20, -1.5e-7, 0.1}
	var values []algebra.Value
	for _, f := range floats {
		values = append(values, algebra.FloatVal(f))
	}
	values = append(values, algebra.IntVal(0), algebra.IntVal(-42), algebra.IntVal(math.MaxInt64), algebra.IntVal(math.MinInt64),
		algebra.DateVal(0), algebra.DateVal(-3), algebra.DateVal(9131),
		algebra.StringVal(""), algebra.StringVal(`quote " and \ backslash`), algebra.StringVal("tab\tnewline\n"),
		algebra.StringVal("ünïcödé ✓"), algebra.StringVal("\x00\xff invalid"), algebra.Value{Typ: algebra.Type(9)})
	var comparisons []algebra.Comparison
	for _, v := range values {
		for _, op := range []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE} {
			// The constant renders before or after the column, so these flip
			// both ways.
			comparisons = append(comparisons,
				cmp(algebra.ColExpr{C: x}, op, algebra.ConstExpr{V: v}),
				cmp(algebra.ConstExpr{V: v}, op, algebra.ColExpr{C: z}))
		}
	}
	comparisons = append(comparisons,
		cmp(algebra.ColExpr{C: y}, algebra.LT, algebra.ColExpr{C: x}),
		cmp(algebra.ColExpr{C: x}, algebra.GE, algebra.ColExpr{C: x}),
		cmp(algebra.ParamExpr{Name: "p"}, algebra.LE, algebra.ColExpr{C: x}),
		cmp(algebra.ColExpr{C: x}, algebra.GT, algebra.ParamExpr{Name: ""}),
		cmp(algebra.BinExpr{Op: algebra.Mul, L: algebra.ColExpr{C: x}, R: algebra.BinExpr{Op: algebra.Sub, L: algebra.ConstExpr{V: algebra.FloatVal(1)}, R: algebra.ColExpr{C: y}}},
			algebra.GT, algebra.BinExpr{Op: algebra.Div, L: algebra.ParamExpr{Name: "q"}, R: algebra.ConstExpr{V: algebra.IntVal(2)}}),
		// Sides equal as text: no flip.
		cmp(algebra.ConstExpr{V: algebra.IntVal(1)}, algebra.LT, algebra.ConstExpr{V: algebra.IntVal(1)}),
		// One side a prefix of the other.
		cmp(algebra.ColExpr{C: algebra.Col("t", "xx")}, algebra.LE, algebra.ColExpr{C: x}),
	)
	for i, c := range comparisons {
		checkRendering(t, "comparison "+strconv.Itoa(i), c, refComparison(c))
	}

	rng := rand.New(rand.NewSource(7))
	pick := func() algebra.Comparison { return comparisons[rng.Intn(len(comparisons))] }
	var preds []algebra.Predicate
	preds = append(preds, algebra.TruePred(), algebra.Predicate{Conj: []algebra.Clause{}},
		algebra.Predicate{Conj: []algebra.Clause{{}}}, algebra.Predicate{Conj: []algebra.Clause{{}, {}}},
		algebra.OrValues(x, algebra.EQ, values),
		algebra.OrValues(x, algebra.EQ, []algebra.Value{algebra.IntVal(5), algebra.IntVal(10), algebra.IntVal(5)}))
	for n := 1; n <= 40; n += 3 { // past appendSorted's 32 spans on the stack
		var p algebra.Predicate
		for range n {
			cl := algebra.Clause{}
			for d := rng.Intn(4); d >= 0; d-- {
				cl.Disj = append(cl.Disj, pick())
			}
			p.Conj = append(p.Conj, cl)
		}
		preds = append(preds, p, p.And(p)) // repeated conjuncts too
	}
	for i, p := range preds {
		checkRendering(t, "predicate "+strconv.Itoa(i), p, refPredicate(p))
		for _, op := range []algebra.Op{algebra.Select{Pred: p}, algebra.Join{Pred: p}} {
			checkRendering(t, "operator over predicate "+strconv.Itoa(i), op, refOp(op))
		}
		for j, cl := range p.Conj {
			checkRendering(t, "predicate "+strconv.Itoa(i)+" clause "+strconv.Itoa(j), cl, refClause(cl))
		}
	}

	aggs := []algebra.AggExpr{
		{Func: algebra.CountAll, As: algebra.Col("q", "n")},
		{Func: algebra.CountAll, Arg: algebra.ColExpr{C: x}, As: algebra.Col("q", "c")},
		{Func: algebra.Sum, Arg: algebra.BinExpr{Op: algebra.Mul, L: algebra.ColExpr{C: x}, R: algebra.ColExpr{C: y}}, As: algebra.Col("q", "s")},
		{Func: algebra.Avg, Arg: algebra.ConstExpr{V: algebra.FloatVal(math.NaN())}, As: algebra.Col("q", "a")},
		{Func: algebra.Min, Arg: algebra.ParamExpr{Name: "p"}, As: algebra.Col("", "")},
		{Func: algebra.Max, Arg: algebra.ColExpr{C: z}, As: algebra.Col("q", "m")},
	}
	ops := []algebra.Op{
		algebra.Scan{Table: "t", Alias: "t"}, algebra.Scan{Table: "t", Alias: "u"}, algebra.Scan{},
		algebra.Aggregate{}, algebra.Aggregate{Aggs: aggs[:1]},
		algebra.Aggregate{GroupBy: []algebra.Column{z, x, y, x}, Aggs: aggs},
		algebra.Aggregate{GroupBy: []algebra.Column{y}, Aggs: []algebra.AggExpr{aggs[5], aggs[0], aggs[5]}},
		algebra.Project{}, algebra.Project{Exprs: []algebra.NamedScalar{
			{Expr: algebra.ColExpr{C: y}, As: algebra.Col("q", "b")},
			{Expr: algebra.ConstExpr{V: algebra.StringVal(`"`)}, As: algebra.Col("q", "a")}}},
		algebra.NoOp{}, algebra.NoOp{NInputs: 12}, algebra.Invoke{Times: -1}, algebra.Invoke{Times: math.MaxInt64},
	}
	for i, op := range ops {
		checkRendering(t, "operator "+strconv.Itoa(i), op, refOp(op))
	}
	for i, a := range aggs {
		checkRendering(t, "aggregate "+strconv.Itoa(i), a, refAggExpr(a))
	}
	nested := algebra.NewTree(algebra.NoOp{NInputs: 3},
		algebra.AggT([]algebra.Column{x}, aggs, algebra.SelectT(preds[len(preds)-1], algebra.ScanT("t"))),
		algebra.NewTree(algebra.Invoke{Times: 7}, algebra.JoinT(preds[4], algebra.ScanT("t"), algebra.ScanAs("a", "z"))),
		algebra.NewTree(ops[8], algebra.ScanT("t")))
	checkTree(t, "nested", nested)
}

// dagRandomBatch is internal/dag's randomBatch generator (seminaive_test.go):
// chains of A.fk = B.id joins split anywhere, stacked selections on one
// column, across a join or with a parameter, sometimes an aggregate on top.
func dagRandomBatch(rng *rand.Rand) []*algebra.Tree {
	tables := []string{"A", "B", "C", "D", "E"}
	randomSelect := func(in *algebra.Tree, over []string) *algebra.Tree {
		c := algebra.Col(over[rng.Intn(len(over))], "num")
		p := algebra.Cmp(c, []algebra.CmpOp{algebra.GE, algebra.EQ}[rng.Intn(2)], algebra.IntVal(int64(10*(1+rng.Intn(3)))))
		switch last := algebra.Col(over[len(over)-1], "id"); {
		case rng.Intn(6) == 0:
			p = p.And(algebra.ColCmp(c, algebra.LE, last))
		case rng.Intn(6) == 0:
			p = algebra.CmpParam(c, algebra.EQ, "p")
		}
		return algebra.SelectT(p, in)
	}
	var gen func(over []string) *algebra.Tree
	gen = func(over []string) *algebra.Tree {
		var t *algebra.Tree
		if len(over) == 1 {
			t = algebra.ScanT(over[0])
		} else {
			m := 1 + rng.Intn(len(over)-1)
			t = algebra.JoinT(algebra.ColEq(algebra.Col(over[m-1], "fk"), algebra.Col(over[m], "id")), gen(over[:m]), gen(over[m:]))
		}
		for rng.Intn(3) == 0 {
			t = randomSelect(t, over)
		}
		return t
	}
	var batch []*algebra.Tree
	for n := 2 + rng.Intn(3); n > 0; n-- {
		lo := rng.Intn(len(tables) - 1)
		over := tables[lo : lo+2+rng.Intn(len(tables)-lo-1)]
		t := gen(over)
		if rng.Intn(3) == 0 {
			by := algebra.Col(over[rng.Intn(len(over))], []string{"id", "fk"}[rng.Intn(2)])
			t = algebra.AggT([]algebra.Column{by},
				[]algebra.AggExpr{{Func: algebra.Sum, Arg: algebra.ColOf(over[0], "num"), As: algebra.Col("q", "s")}}, t)
		}
		batch = append(batch, t)
	}
	return batch
}

// coreRandomBatch is internal/core's randomBatch generator
// (property_test.go, over core_test.go's chain): selective chain queries
// over a random stretch of five relations.
func coreRandomBatch(rng *rand.Rand) []*algebra.Tree {
	names := []string{"R", "S", "T", "P", "U"}
	batch := make([]*algebra.Tree, 2+rng.Intn(3))
	for q := range batch {
		start := rng.Intn(3)
		length := 2 + rng.Intn(3)
		if start+length > len(names) {
			length = len(names) - start
		}
		tables := names[start : start+length]
		t := algebra.SelectT(algebra.Cmp(algebra.Col(tables[0], "num"), algebra.GE, algebra.IntVal(int64(900+rng.Intn(99)))),
			algebra.ScanT(tables[0]))
		for i := 1; i < len(tables); i++ {
			t = algebra.JoinT(algebra.ColEq(algebra.Col(tables[i-1], "fk"), algebra.Col(tables[i], "id")), t, algebra.ScanT(tables[i]))
		}
		batch[q] = t
	}
	return batch
}

// TestAppendFingerprintAllocatesNothing: rendering a tree into a buffer
// already grown to its length allocates nothing, however many clauses and
// aggregates the tree sorts.
func TestAppendFingerprintAllocatesNothing(t *testing.T) {
	trees := append(tpcd.TenantBatch(5, 2), ssb.AllFlights()...)
	var buf []byte
	for _, tr := range trees {
		buf = tr.AppendFingerprint(buf)
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf = buf[:0]
		for _, tr := range trees {
			buf = tr.AppendFingerprint(buf)
		}
	})
	if allocs != 0 {
		t.Errorf("rendering %d trees into a grown buffer allocates %.1f times, want 0", len(trees), allocs)
	}
}

package cost_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/tpcd"
)

// eagerRel is the reference profile: every derivation copies its inputs'
// column statistics into a map of its own and clamps all of them, the way
// cost.Rel was built before its levels shared statistics.
type eagerRel struct {
	rows  float64
	width int
	cols  map[algebra.Column]cost.ColStat
}

const defaultSelectivity = 1.0 / 3.0

func (r eagerRel) colStat(c algebra.Column) cost.ColStat {
	if s, ok := r.cols[c]; ok {
		return s
	}
	return cost.ColStat{Distinct: math.Max(1, r.rows/10)}
}

func (r eagerRel) capDistinct() {
	for c, s := range r.cols {
		if s.Distinct > r.rows {
			s.Distinct = math.Max(1, r.rows)
			r.cols[c] = s
		}
	}
}

func eagerBase(t *catalog.Table, alias string) eagerRel {
	rel := eagerRel{rows: float64(t.Rows), width: t.RowWidth(), cols: map[algebra.Column]cost.ColStat{}}
	for _, c := range t.Cols {
		st := cost.ColStat{Distinct: float64(c.Stats.Distinct), Min: c.Stats.Min, Max: c.Stats.Max, HasRange: c.Stats.HasRange}
		if st.Distinct <= 0 {
			st.Distinct = math.Max(1, rel.rows/10)
		}
		rel.cols[algebra.Col(alias, c.Name)] = st
	}
	return rel
}

func eagerComparison(r eagerRel, c algebra.Comparison) float64 {
	lcol, lIsCol := c.L.(algebra.ColExpr)
	rcol, rIsCol := c.R.(algebra.ColExpr)
	switch {
	case lIsCol && rIsCol:
		if c.Op == algebra.EQ {
			return 1 / math.Max(1, math.Max(r.colStat(lcol.C).Distinct, r.colStat(rcol.C).Distinct))
		}
		return defaultSelectivity
	case lIsCol:
		return eagerColConst(r, lcol.C, c.Op, c.R)
	case rIsCol:
		return eagerColConst(r, rcol.C, c.Op.Flip(), c.L)
	}
	return defaultSelectivity
}

func eagerColConst(r eagerRel, col algebra.Column, op algebra.CmpOp, rhs algebra.Scalar) float64 {
	st := r.colStat(col)
	d := math.Max(1, st.Distinct)
	cv, isConst := rhs.(algebra.ConstExpr)
	switch op {
	case algebra.EQ:
		return 1 / d
	case algebra.NE:
		return 1 - 1/d
	}
	if isConst && st.HasRange && st.Min.IsNumeric() && st.Max.IsNumeric() && cv.V.IsNumeric() {
		lo, hi, v := st.Min.AsFloat(), st.Max.AsFloat(), cv.V.AsFloat()
		if hi <= lo {
			return defaultSelectivity
		}
		f := (hi - v) / (hi - lo)
		if op == algebra.LT || op == algebra.LE {
			f = (v - lo) / (hi - lo)
		}
		return math.Min(1, math.Max(f, 0))
	}
	return defaultSelectivity
}

func eagerSelectivity(r eagerRel, p algebra.Predicate) float64 {
	sel := 1.0
	for _, cl := range p.Conj {
		miss := 1.0
		for _, cmp := range cl.Disj {
			miss *= 1 - eagerComparison(r, cmp)
		}
		sel *= 1 - miss
	}
	return sel
}

func eagerSelect(r eagerRel, pred algebra.Predicate) eagerRel {
	out := eagerRel{width: r.width, cols: make(map[algebra.Column]cost.ColStat, len(r.cols))}
	for c, s := range r.cols {
		out.cols[c] = s
	}
	out.rows = math.Max(0, r.rows*eagerSelectivity(r, pred))
	if col, op, v, ok := pred.SingleColumnRange(); ok && op == algebra.EQ {
		st := out.colStat(col)
		st.Distinct = 1
		st.Min, st.Max, st.HasRange = v, v, v.IsNumeric()
		out.cols[col] = st
	}
	out.capDistinct()
	return out
}

func eagerJoin(l, r eagerRel, pred algebra.Predicate) eagerRel {
	out := eagerRel{width: l.width + r.width, cols: make(map[algebra.Column]cost.ColStat, len(l.cols)+len(r.cols))}
	for c, s := range l.cols {
		out.cols[c] = s
	}
	for c, s := range r.cols {
		out.cols[c] = s
	}
	rows := l.rows * r.rows
	for _, cl := range pred.Conj {
		if len(cl.Disj) == 1 {
			cmp := cl.Disj[0]
			lc, lok := cmp.L.(algebra.ColExpr)
			rc, rok := cmp.R.(algebra.ColExpr)
			if lok && rok && cmp.Op == algebra.EQ {
				inL, lInL := l.cols[lc.C]
				inR, rInR := r.cols[rc.C]
				if !lInL || !rInR {
					inL, inR = l.cols[rc.C], r.cols[lc.C]
				}
				rows /= math.Max(math.Max(inL.Distinct, inR.Distinct), 1)
				continue
			}
		}
		// out.rows is still zero here and out.cols not yet clamped.
		rows *= eagerSelectivity(out, algebra.Predicate{Conj: []algebra.Clause{cl}})
	}
	out.rows = math.Max(0, rows)
	out.capDistinct()
	return out
}

func eagerAggregate(r eagerRel, agg algebra.Aggregate) eagerRel {
	groups := 1.0
	for _, c := range agg.GroupBy {
		groups *= math.Max(1, r.colStat(c).Distinct)
	}
	groups = math.Min(groups, math.Max(1, r.rows))
	out := eagerRel{rows: groups, width: 8 * (len(agg.GroupBy) + len(agg.Aggs)), cols: map[algebra.Column]cost.ColStat{}}
	for _, c := range agg.GroupBy {
		st := r.colStat(c)
		st.Distinct = math.Min(st.Distinct, groups)
		out.cols[c] = st
	}
	for _, a := range agg.Aggs {
		out.cols[a.As] = cost.ColStat{Distinct: math.Max(1, groups/2)}
	}
	return out
}

func eagerProject(r eagerRel, p algebra.Project) eagerRel {
	out := eagerRel{rows: r.rows, cols: map[algebra.Column]cost.ColStat{}}
	for _, ne := range p.Exprs {
		if ce, ok := ne.Expr.(algebra.ColExpr); ok {
			if st, found := r.cols[ce.C]; found {
				out.cols[ne.As] = st
			}
		}
		if _, found := out.cols[ne.As]; !found {
			out.cols[ne.As] = cost.ColStat{Distinct: math.Max(1, r.rows/10)}
		}
		out.width += 8
	}
	if out.width == 0 {
		out.width = 8
	}
	return out
}

// profile is one relation estimated both ways, with its columns in a fixed
// order for the generator to draw from.
type profile struct {
	desc  string
	lazy  cost.Rel
	eager eagerRel
	cols  []algebra.Column
}

// check compares the two estimates bit for bit: cardinality, width, every
// column the reference has, and the absence of one it has not.
func (p profile) check(t *testing.T) {
	t.Helper()
	if math.Float64bits(p.lazy.Rows) != math.Float64bits(p.eager.rows) || p.lazy.Width != p.eager.width {
		t.Fatalf("%s: rows %v width %d, reference rows %v width %d", p.desc, p.lazy.Rows, p.lazy.Width, p.eager.rows, p.eager.width)
	}
	for c, want := range p.eager.cols {
		got, ok := p.lazy.ColStat(c)
		if !ok {
			t.Fatalf("%s: column %v missing", p.desc, c)
		}
		if math.Float64bits(got.Distinct) != math.Float64bits(want.Distinct) ||
			got.Min != want.Min || got.Max != want.Max || got.HasRange != want.HasRange {
			t.Fatalf("%s: column %v is %+v, reference %+v", p.desc, c, got, want)
		}
	}
	if _, ok := p.lazy.ColStat(algebra.Col("no", "such")); ok {
		t.Fatalf("%s: reports statistics for a column it does not have", p.desc)
	}
}

type chainGen struct {
	t    *testing.T
	rng  *rand.Rand
	est  cost.Estimator
	cat  *catalog.Catalog
	next int // alias and output-column counter
}

func (g *chainGen) base() profile {
	names := g.cat.Names()
	tbl := g.cat.MustTable(names[g.rng.Intn(len(names))])
	g.next++
	alias := fmt.Sprintf("%s%d", tbl.Name, g.next)
	lazy, err := g.est.BaseRel(tbl.Name, alias)
	if err != nil {
		g.t.Fatal(err)
	}
	p := profile{desc: alias, lazy: lazy, eager: eagerBase(tbl, alias)}
	for _, c := range tbl.Cols {
		p.cols = append(p.cols, algebra.Col(alias, c.Name))
	}
	return p
}

func (g *chainGen) col(p profile) algebra.Column { return p.cols[g.rng.Intn(len(p.cols))] }

// constant draws a value around the column's range, or any small integer.
func (g *chainGen) constant(p profile, c algebra.Column) algebra.Value {
	if st := p.eager.cols[c]; st.HasRange && st.Min.IsNumeric() && st.Max.IsNumeric() {
		lo, hi := st.Min.AsFloat(), st.Max.AsFloat()
		return algebra.IntVal(int64(lo + (hi-lo)*(g.rng.Float64()*1.2-0.1)))
	}
	return algebra.IntVal(int64(g.rng.Intn(50)))
}

func (g *chainGen) cmp(p profile) algebra.Predicate {
	c := g.col(p)
	ops := []algebra.CmpOp{algebra.EQ, algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	return algebra.Cmp(c, ops[g.rng.Intn(len(ops))], g.constant(p, c))
}

func (g *chainGen) selectOver(p profile) profile {
	var pred algebra.Predicate
	switch g.rng.Intn(4) {
	case 0, 1:
		pred = g.cmp(p)
	case 2:
		pred = g.cmp(p).And(g.cmp(p))
	default:
		c := g.col(p)
		pred = algebra.OrValues(c, algebra.EQ, []algebra.Value{g.constant(p, c), g.constant(p, c)})
	}
	return profile{
		desc:  "σ[" + pred.String() + "](" + p.desc + ")",
		lazy:  g.est.ApplySelect(p.lazy, pred),
		eager: eagerSelect(p.eager, pred),
		cols:  p.cols,
	}
}

func (g *chainGen) joinOf(l, r profile) profile {
	a, b := g.col(l), g.col(r)
	pred := algebra.ColEq(a, b)
	if g.rng.Intn(2) == 0 {
		pred = algebra.ColEq(b, a) // sides reversed
	}
	switch g.rng.Intn(4) {
	case 0: // a non-equi conjunct, estimated before the join's row count is known
		pred = pred.And(algebra.ColCmp(g.col(l), algebra.LT, g.col(r)))
	case 1: // and one on a single side, in either position
		pred = g.cmp(l).And(pred)
	case 2:
		pred = algebra.ColCmp(g.col(r), algebra.GE, g.col(l))
	}
	return profile{
		desc:  "(" + l.desc + " ⋈[" + pred.String() + "] " + r.desc + ")",
		lazy:  g.est.ApplyJoin(l.lazy, r.lazy, pred),
		eager: eagerJoin(l.eager, r.eager, pred),
		cols:  append(append([]algebra.Column(nil), l.cols...), r.cols...),
	}
}

func (g *chainGen) aggregateOver(p profile) profile {
	g.next++
	agg := algebra.Aggregate{Aggs: []algebra.AggExpr{{Func: algebra.Sum, Arg: algebra.ColExpr{C: g.col(p)}, As: algebra.Col("agg", fmt.Sprintf("s%d", g.next))}}}
	for i := g.rng.Intn(3); i > 0; i-- {
		agg.GroupBy = append(agg.GroupBy, g.col(p))
	}
	out := profile{
		desc:  "γ(" + p.desc + ")",
		lazy:  g.est.ApplyAggregate(p.lazy, agg),
		eager: eagerAggregate(p.eager, agg),
		cols:  append([]algebra.Column(nil), agg.GroupBy...),
	}
	out.cols = append(out.cols, agg.Aggs[0].As)
	return out
}

func (g *chainGen) projectOver(p profile) profile {
	var proj algebra.Project
	out := profile{desc: "π(" + p.desc + ")"}
	for i := 1 + g.rng.Intn(3); i > 0; i-- {
		g.next++
		as := algebra.Col("proj", fmt.Sprintf("c%d", g.next))
		var e algebra.Scalar = algebra.ColExpr{C: g.col(p)}
		if g.rng.Intn(3) == 0 {
			e = algebra.BinExpr{Op: algebra.Add, L: e, R: algebra.ConstOf(algebra.IntVal(1))}
		}
		proj.Exprs = append(proj.Exprs, algebra.NamedScalar{Expr: e, As: as, Typ: algebra.TInt})
		out.cols = append(out.cols, as)
	}
	out.lazy, out.eager = g.est.ApplyProject(p.lazy, proj), eagerProject(p.eager, proj)
	return out
}

// TestSharedStatsMatchEagerCopies derives seeded random operator chains over
// the TPC-D base profiles with the estimator and with the copy-the-maps
// reference above, and requires every intermediate profile to be equal bit
// for bit.
func TestSharedStatsMatchEagerCopies(t *testing.T) {
	cat := tpcd.Catalog(1)
	for seed := int64(1); seed <= 40; seed++ {
		g := &chainGen{t: t, rng: rand.New(rand.NewSource(seed)), est: cost.Estimator{Cat: cat}, cat: cat}
		pool := []profile{g.base(), g.base()}
		for step := 0; step < 40; step++ {
			p := pool[g.rng.Intn(len(pool))]
			var out profile
			switch g.rng.Intn(8) {
			case 0:
				out = g.base()
			case 1, 2, 3:
				out = g.selectOver(p)
			case 4, 5:
				out = g.joinOf(p, pool[g.rng.Intn(len(pool))]) // joined with itself now and then: r shadows l
			case 6:
				out = g.aggregateOver(p)
			default:
				out = g.projectOver(p)
			}
			out.check(t)
			pool = append(pool, out)
		}
	}
}

// TestSharedStatsClampOrder pins the two orderings a lazily clamped lookup
// can get wrong: clamps must apply innermost first through select over join
// over select, and a join's non-equi conjunct is estimated before the join
// has a row count to clamp to.
func TestSharedStatsClampOrder(t *testing.T) {
	cat := tpcd.Catalog(1)
	g := &chainGen{t: t, est: cost.Estimator{Cat: cat}, cat: cat}
	base := func(table string) profile {
		lazy, err := g.est.BaseRel(table, table)
		if err != nil {
			t.Fatal(err)
		}
		return profile{desc: table, lazy: lazy, eager: eagerBase(cat.MustTable(table), table)}
	}
	step := func(p profile, pred algebra.Predicate) profile {
		out := profile{desc: "σ(" + p.desc + ")", lazy: g.est.ApplySelect(p.lazy, pred), eager: eagerSelect(p.eager, pred)}
		out.check(t)
		return out
	}
	join := func(l, r profile, pred algebra.Predicate) profile {
		out := profile{desc: "(" + l.desc + "⋈" + r.desc + ")", lazy: g.est.ApplyJoin(l.lazy, r.lazy, pred), eager: eagerJoin(l.eager, r.eager, pred)}
		out.check(t)
		return out
	}
	sk, snk, nk := algebra.Col("supplier", "sk"), algebra.Col("supplier", "snk"), algebra.Col("nation", "nk")

	// A narrow select clamps supplier's distinct counts low; the join then
	// multiplies rows back up and must not undo that clamp; the outer
	// select clamps again.
	narrow := step(base("supplier"), algebra.Cmp(algebra.Col("supplier", "sacctbal"), algebra.GE, algebra.FloatVal(9990)))
	joined := join(narrow, base("nation"), algebra.ColEq(snk, nk))
	outer := step(joined, algebra.Cmp(nk, algebra.LE, algebra.IntVal(3)))
	if got, _ := outer.lazy.ColStat(sk); got.Distinct > narrow.lazy.Rows && got.Distinct > 1 {
		t.Errorf("supplier.sk distinct %v escaped the inner select's clamp to %v rows", got.Distinct, narrow.lazy.Rows)
	}

	// sk < nk is estimated against supplier's and nation's own distinct
	// counts, while the join's row count is still unset.
	join(base("supplier"), base("nation"), algebra.ColEq(snk, nk).And(algebra.ColCmp(sk, algebra.LT, nk)))
	join(narrow, base("nation"), algebra.ColEq(sk, nk).And(
		algebra.Predicate{Conj: []algebra.Clause{{Disj: []algebra.Comparison{
			{L: algebra.ColExpr{C: snk}, Op: algebra.EQ, R: algebra.ColExpr{C: nk}},
			{L: algebra.ColExpr{C: sk}, Op: algebra.EQ, R: algebra.ConstOf(algebra.IntVal(7))},
		}}}}))
}

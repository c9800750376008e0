package cost

import (
	"math"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
)

// ColStat is the estimator's knowledge about one column of an intermediate
// result.
type ColStat struct {
	Distinct float64
	Min, Max algebra.Value
	HasRange bool
}

// Rel is the estimated profile of a (possibly intermediate) relation:
// cardinality, tuple width, and per-column statistics. Rel values are
// immutable once built; derivations return fresh values that share their
// inputs' column statistics instead of copying them.
type Rel struct {
	Rows  float64
	Width int
	stats *colStats
}

// colStats is one operator's level of column statistics. A select or join
// changes few or no columns, so it records only those in own and reads
// every other column through to its inputs, clamping the distinct count to
// its own row count on the way out — level by level the same clamps an
// eager copy of the inputs' maps would have applied.
type colStats struct {
	own  map[algebra.Column]ColStat // set or overridden here, already clamped
	l, r *colStats                  // inputs the other columns show through from; r shadows l
	rows float64                    // distinct counts read from l and r are clamped to this
}

// lookup returns the statistics of column c as seen at this level.
func (s *colStats) lookup(c algebra.Column) (ColStat, bool) {
	if s == nil {
		return ColStat{}, false
	}
	if st, ok := s.own[c]; ok {
		return st, true
	}
	st, ok := s.r.lookup(c)
	if !ok {
		st, ok = s.l.lookup(c)
	}
	if ok {
		st.Distinct = clampDistinct(st.Distinct, s.rows)
	}
	return st, ok
}

// clampDistinct limits a distinct count to a relation's row count.
func clampDistinct(d, rows float64) float64 {
	if d > rows {
		return math.Max(1, rows)
	}
	return d
}

// Blocks returns the size of the relation in blocks under model m.
func (r Rel) Blocks(m Model) float64 { return m.Blocks(r.Rows, r.Width) }

// Estimator derives Rel profiles for algebra operators from catalog
// statistics.
type Estimator struct {
	Cat *catalog.Catalog
}

// defaultSelectivity is used when a predicate cannot be analyzed.
const defaultSelectivity = 1.0 / 3.0

// BaseRel returns the profile of a base table scanned under an alias.
func (e Estimator) BaseRel(table, alias string) (Rel, error) {
	t, err := e.Cat.Table(table)
	if err != nil {
		return Rel{}, err
	}
	own := make(map[algebra.Column]ColStat, len(t.Cols))
	rel := Rel{Rows: float64(t.Rows), Width: t.RowWidth(), stats: &colStats{own: own}}
	for _, c := range t.Cols {
		st := ColStat{Distinct: float64(c.Stats.Distinct), Min: c.Stats.Min, Max: c.Stats.Max, HasRange: c.Stats.HasRange}
		if st.Distinct <= 0 {
			st.Distinct = math.Max(1, rel.Rows/10)
		}
		own[algebra.Col(alias, c.Name)] = st
	}
	return rel, nil
}

// ColStat returns the statistics of column c, or false if the relation has
// no such column.
func (r Rel) ColStat(c algebra.Column) (ColStat, bool) { return r.stats.lookup(c) }

// colStat returns the stats for a column, with a permissive default.
func (r Rel) colStat(c algebra.Column) ColStat {
	if s, ok := r.ColStat(c); ok {
		return s
	}
	return ColStat{Distinct: math.Max(1, r.Rows/10)}
}

// comparisonSelectivity estimates one comparison against r's columns.
func (e Estimator) comparisonSelectivity(r Rel, c algebra.Comparison) float64 {
	lcol, lIsCol := c.L.(algebra.ColExpr)
	rcol, rIsCol := c.R.(algebra.ColExpr)
	switch {
	case lIsCol && rIsCol:
		// column-to-column inside one relation (e.g. theta self conditions)
		ld, rd := r.colStat(lcol.C).Distinct, r.colStat(rcol.C).Distinct
		if c.Op == algebra.EQ {
			return 1 / math.Max(1, math.Max(ld, rd))
		}
		return defaultSelectivity
	case lIsCol:
		return e.colConstSelectivity(r, lcol.C, c.Op, c.R)
	case rIsCol:
		return e.colConstSelectivity(r, rcol.C, c.Op.Flip(), c.L)
	default:
		return defaultSelectivity
	}
}

// colConstSelectivity estimates col op rhs where rhs is a constant or
// parameter. Parameters estimate like an unknown constant.
func (e Estimator) colConstSelectivity(r Rel, col algebra.Column, op algebra.CmpOp, rhs algebra.Scalar) float64 {
	st := r.colStat(col)
	d := math.Max(1, st.Distinct)
	cv, isConst := rhs.(algebra.ConstExpr)
	switch op {
	case algebra.EQ:
		return 1 / d
	case algebra.NE:
		return 1 - 1/d
	case algebra.LT, algebra.LE, algebra.GT, algebra.GE:
		if isConst && st.HasRange && st.Min.IsNumeric() && st.Max.IsNumeric() && cv.V.IsNumeric() {
			lo, hi, v := st.Min.AsFloat(), st.Max.AsFloat(), cv.V.AsFloat()
			if hi <= lo {
				return defaultSelectivity
			}
			var f float64
			if op == algebra.LT || op == algebra.LE {
				f = (v - lo) / (hi - lo)
			} else {
				f = (hi - v) / (hi - lo)
			}
			return math.Min(1, math.Max(f, 0))
		}
		return defaultSelectivity
	}
	return defaultSelectivity
}

// Selectivity estimates a predicate over relation profile r. Conjuncts
// multiply; disjuncts combine by inclusion-exclusion under independence.
func (e Estimator) Selectivity(r Rel, p algebra.Predicate) float64 {
	sel := 1.0
	for _, cl := range p.Conj {
		miss := 1.0
		for _, cmp := range cl.Disj {
			miss *= 1 - e.comparisonSelectivity(r, cmp)
		}
		sel *= 1 - miss
	}
	return sel
}

// ApplySelect derives the profile of σ_pred(r).
func (e Estimator) ApplySelect(r Rel, pred algebra.Predicate) Rel {
	rows := math.Max(0, r.Rows*e.Selectivity(r, pred))
	level := &colStats{l: r.stats, rows: rows}
	// Equality against a constant pins the column to one value.
	if col, op, v, ok := pred.SingleColumnRange(); ok && op == algebra.EQ {
		level.own = map[algebra.Column]ColStat{col: {Distinct: 1, Min: v, Max: v, HasRange: v.IsNumeric()}}
	}
	return Rel{Rows: rows, Width: r.Width, stats: level}
}

// ApplyJoin derives the profile of r1 ⋈_pred r2. Equality conjuncts between
// the two sides use the standard |r1||r2|/max(d1,d2) formula; remaining
// conjuncts contribute their plain selectivity.
func (e Estimator) ApplyJoin(l, r Rel, pred algebra.Predicate) Rel {
	// Until Rows is known the level clamps nothing: a non-equi conjunct
	// below is estimated against the inputs' own distinct counts.
	level := &colStats{l: l.stats, r: r.stats, rows: math.Inf(1)}
	out := Rel{Width: l.Width + r.Width, stats: level}
	rows := l.Rows * r.Rows
	for _, cl := range pred.Conj {
		if len(cl.Disj) == 1 {
			cmp := cl.Disj[0]
			lc, lok := cmp.L.(algebra.ColExpr)
			rc, rok := cmp.R.(algebra.ColExpr)
			if lok && rok && cmp.Op == algebra.EQ {
				inL, lInL := l.ColStat(lc.C)
				inR, rInR := r.ColStat(rc.C)
				if !lInL || !rInR {
					// sides reversed: lc from r, rc from l
					inL, _ = l.ColStat(rc.C)
					inR, _ = r.ColStat(lc.C)
				}
				d := math.Max(math.Max(inL.Distinct, inR.Distinct), 1)
				rows /= d
				continue
			}
		}
		// Non-equi or disjunctive conjunct: estimate against the combined
		// profile.
		rows *= e.Selectivity(out, algebra.Predicate{Conj: []algebra.Clause{cl}})
	}
	out.Rows = math.Max(0, rows)
	level.rows = out.Rows
	return out
}

// ApplyAggregate derives the profile of an aggregation. Output cardinality
// is the product of the group-by columns' distinct counts, capped by the
// input cardinality.
func (e Estimator) ApplyAggregate(r Rel, agg algebra.Aggregate) Rel {
	groups := 1.0
	for _, c := range agg.GroupBy {
		groups *= math.Max(1, r.colStat(c).Distinct)
	}
	if len(agg.GroupBy) == 0 {
		groups = 1
	}
	groups = math.Min(groups, math.Max(1, r.Rows))
	own := make(map[algebra.Column]ColStat, len(agg.GroupBy)+len(agg.Aggs))
	for _, c := range agg.GroupBy {
		st := r.colStat(c)
		st.Distinct = math.Min(st.Distinct, groups)
		own[c] = st
	}
	for _, a := range agg.Aggs {
		own[a.As] = ColStat{Distinct: math.Max(1, groups/2)}
	}
	return Rel{Rows: groups, Width: 8 * (len(agg.GroupBy) + len(agg.Aggs)), stats: &colStats{own: own}}
}

// ApplyProject derives the profile of a projection: cardinality unchanged,
// width recomputed from the projected expressions.
func (e Estimator) ApplyProject(r Rel, p algebra.Project) Rel {
	own := make(map[algebra.Column]ColStat, len(p.Exprs))
	out := Rel{Rows: r.Rows, Width: 0, stats: &colStats{own: own}}
	for _, ne := range p.Exprs {
		w := 8
		if ce, ok := ne.Expr.(algebra.ColExpr); ok {
			if st, found := r.ColStat(ce.C); found {
				own[ne.As] = st
			}
		}
		if _, found := own[ne.As]; !found {
			own[ne.As] = ColStat{Distinct: math.Max(1, r.Rows/10)}
		}
		out.Width += w
	}
	if out.Width == 0 {
		out.Width = 8
	}
	return out
}

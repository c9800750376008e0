package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// Reference evaluates a logical operator tree naively (nested loops, full
// scans, hash-free grouping) directly against the database. It is the
// oracle for integration tests: every optimized plan must produce the same
// multiset of rows as the reference evaluation of its query.
func Reference(db *storage.DB, t *algebra.Tree, env *Env) ([]storage.Row, algebra.Schema, error) {
	if env == nil {
		env = &Env{}
	}
	if env.Params == nil {
		env.Params = map[string]algebra.Value{}
	}
	return evalTree(db, t, env)
}

func evalTree(db *storage.DB, t *algebra.Tree, env *Env) ([]storage.Row, algebra.Schema, error) {
	switch op := t.Op.(type) {
	case algebra.Scan:
		tab, err := db.Table(op.Table)
		if err != nil {
			return nil, nil, err
		}
		schema := requalify(tab.Schema, op.Alias)
		var rows []storage.Row
		err = tab.Heap.Scan(func(_ storage.RID, r storage.Row) error {
			rows = append(rows, r.Clone())
			return nil
		})
		return rows, schema, err

	case algebra.Select:
		in, schema, err := evalTree(db, t.Inputs[0], env)
		if err != nil {
			return nil, nil, err
		}
		pred, err := compilePred(op.Pred, schema, env)
		if err != nil {
			return nil, nil, err
		}
		var out []storage.Row
		for _, r := range in {
			keep, err := pred(r)
			if err != nil {
				return nil, nil, err
			}
			if keep {
				out = append(out, r)
			}
		}
		return out, schema, nil

	case algebra.Join:
		l, ls, err := evalTree(db, t.Inputs[0], env)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := evalTree(db, t.Inputs[1], env)
		if err != nil {
			return nil, nil, err
		}
		schema := ls.Concat(rs)
		pred, err := compilePred(op.Pred, schema, env)
		if err != nil {
			return nil, nil, err
		}
		var out []storage.Row
		pair := make(storage.Row, 0, len(schema)) // every pair is tried; only the kept ones are copied
		for _, lr := range l {
			pair = append(pair[:0], lr...)
			for _, rr := range r {
				pair = append(pair[:len(lr)], rr...)
				keep, err := pred(pair)
				if err != nil {
					return nil, nil, err
				}
				if keep {
					out = append(out, slices.Clone(pair))
				}
			}
		}
		return out, schema, nil

	case algebra.Aggregate:
		in, schema, err := evalTree(db, t.Inputs[0], env)
		if err != nil {
			return nil, nil, err
		}
		gbIdx := make([]int, len(op.GroupBy))
		for i, c := range op.GroupBy {
			gbIdx[i] = schema.IndexOf(c)
			if gbIdx[i] < 0 {
				return nil, nil, fmt.Errorf("exec: reference group-by column %v missing", c)
			}
		}
		argFns := make([]valueFunc, len(op.Aggs))
		for i, a := range op.Aggs {
			if a.Func == algebra.CountAll {
				continue
			}
			f, err := compileScalar(a.Arg, schema, env)
			if err != nil {
				return nil, nil, err
			}
			argFns[i] = f
		}
		// A row joins the first group whose group-by values all Compare
		// equal to its own, found by a linear search: no hash decides it.
		var groups [][]storage.Row
	next:
		for _, r := range in {
			for g, rows := range groups {
				if compareAt(r, gbIdx, rows[0], gbIdx) == 0 {
					groups[g] = append(rows, r)
					continue next
				}
			}
			groups = append(groups, []storage.Row{r})
		}
		if len(op.GroupBy) == 0 && len(groups) == 0 {
			groups = append(groups, nil)
		}
		outSchema := make(algebra.Schema, 0, len(op.GroupBy)+len(op.Aggs))
		for i, c := range op.GroupBy {
			outSchema = append(outSchema, algebra.ColInfo{Col: c, Typ: schema[gbIdx[i]].Typ})
		}
		for _, a := range op.Aggs {
			ty := algebra.TFloat
			if a.Func == algebra.CountAll {
				ty = algebra.TInt
			}
			outSchema = append(outSchema, algebra.ColInfo{Col: a.As, Typ: ty})
		}
		var out []storage.Row
		for _, rows := range groups {
			states := make([]aggState, len(op.Aggs))
			for i, a := range op.Aggs {
				states[i] = aggState{fn: a.Func, arg: argFns[i]}
			}
			for _, r := range rows {
				for i := range states {
					if err := states[i].add(r); err != nil {
						return nil, nil, err
					}
				}
			}
			row := make(storage.Row, 0, len(outSchema))
			if len(rows) > 0 {
				for _, ix := range gbIdx {
					row = append(row, rows[0][ix])
				}
			}
			for i := range states {
				row = append(row, states[i].result())
			}
			out = append(out, row)
		}
		return out, outSchema, nil

	case algebra.Project:
		in, schema, err := evalTree(db, t.Inputs[0], env)
		if err != nil {
			return nil, nil, err
		}
		funcs := make([]valueFunc, len(op.Exprs))
		outSchema := make(algebra.Schema, len(op.Exprs))
		for i, ne := range op.Exprs {
			f, err := compileScalar(ne.Expr, schema, env)
			if err != nil {
				return nil, nil, err
			}
			funcs[i] = f
			outSchema[i] = algebra.ColInfo{Col: ne.As, Typ: ne.Typ}
		}
		var out []storage.Row
		for _, r := range in {
			row := make(storage.Row, len(funcs))
			for i, f := range funcs {
				v, err := f(r)
				if err != nil {
					return nil, nil, err
				}
				row[i] = v
			}
			out = append(out, row)
		}
		return out, outSchema, nil

	case algebra.Invoke:
		sets := env.ParamSets
		if len(sets) == 0 {
			sets = []map[string]algebra.Value{{}}
		}
		var out []storage.Row
		var schema algebra.Schema
		for _, set := range sets {
			for k, v := range set {
				env.Params[k] = v
			}
			rows, s, err := evalTree(db, t.Inputs[0], env)
			if err != nil {
				return nil, nil, err
			}
			schema = s
			out = append(out, rows...)
		}
		return out, schema, nil
	}
	return nil, nil, fmt.Errorf("exec: reference cannot evaluate %T", t.Op)
}

// Canonicalize renders a result set order- and column-order-insensitively
// for comparison: each row becomes "col=value" pairs sorted by column name,
// and the rows are sorted. Float aggregates are rounded to 6 digits, so two
// sums of the same terms in another order render differently when they
// straddle a rounding boundary; compare against Reference with EqualRows.
func Canonicalize(schema algebra.Schema, rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			val := v
			if v.Typ == algebra.TFloat {
				val = algebra.FloatVal(roundTo(v.F, 6))
			}
			parts[j] = schema[j].Col.String() + "=" + val.String()
		}
		sort.Strings(parts)
		out[i] = strings.Join(parts, ",")
	}
	sort.Strings(out)
	return out
}

// EqualRows reports whether two results hold the same multiset of rows,
// matching columns by name. Floats are equal within relTol relative
// difference (plans sum in different orders, see closeFloats), everything
// else exactly.
func EqualRows(a, b QueryResult, relTol float64) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	ra, rb := tolerantRows(a), tolerantRows(b)
	for i := range ra {
		if ra[i].key != rb[i].key {
			return false
		}
		for j, x := range ra[i].floats {
			if !closeFloats(x, rb[i].floats[j], relTol) {
				return false
			}
		}
	}
	return true
}

// closeFloats reports whether x and y are equal within relTol relative
// difference. An infinity is equal only to itself, and a NaN only to a NaN.
func closeFloats(x, y, relTol float64) bool {
	if x == y || x != x && y != y {
		return true
	}
	d := math.Abs(x - y) // NaN or +Inf when only one is NaN or infinite
	return d <= relTol*math.Max(math.Abs(x), math.Abs(y)) && !math.IsInf(d, 0)
}

// tolerantRow is a row with its columns in name order: the floats kept as
// numbers, everything else (and where the floats stand) rendered into key.
type tolerantRow struct {
	key    string
	floats []float64
}

func tolerantRows(q QueryResult) []tolerantRow {
	cols := make([]int, len(q.Schema))
	for i := range cols {
		cols[i] = i
	}
	sort.Slice(cols, func(a, b int) bool { return q.Schema[cols[a]].Col.Less(q.Schema[cols[b]].Col) })
	out := make([]tolerantRow, len(q.Rows))
	for i, r := range q.Rows {
		var key strings.Builder
		for _, j := range cols {
			key.WriteString(q.Schema[j].Col.String())
			if r[j].Typ == algebra.TFloat {
				out[i].floats = append(out[i].floats, r[j].F)
				key.WriteString("=float,")
			} else {
				key.WriteString("=" + r[j].String() + ",")
			}
		}
		out[i].key = key.String()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key != out[b].key {
			return out[a].key < out[b].key
		}
		return slices.Compare(out[a].floats, out[b].floats) < 0
	})
	return out
}

func roundTo(f float64, digits int) float64 {
	scale := 1.0
	for i := 0; i < digits; i++ {
		scale *= 10
	}
	v := f * scale
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	return float64(int64(v)) / scale
}

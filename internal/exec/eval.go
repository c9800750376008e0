// Package exec is the Volcano-style iterator execution engine: it
// instantiates optimized plans (physical.Plan) over stored tables
// (storage.DB), materializing shared intermediate results into temporary
// tables and building temporary indices as the plan dictates. Rows are
// pipelined between operators; only materialization writes to storage, as
// the paper's cost model assumes (§6).
package exec

import (
	"fmt"

	"mqo/internal/algebra"
	"mqo/internal/storage"
)

// Env carries execution-time context: parameter bindings for correlated /
// parameterized queries (paper §5) and the run's result-cache I/O.
type Env struct {
	Params map[string]algebra.Value
	// ParamSets drives Invoke nodes: the body runs once per binding set.
	ParamSets []map[string]algebra.Value
	// Cache connects the run to the cross-batch result cache (nil: none).
	Cache *CacheIO
	// Profile, when set, wraps every instantiated operator with rows-out /
	// pages-read / wall-time counters and attaches the resulting per-plan
	// profile tree to RunStats.Profile (the EXPLAIN ANALYZE input).
	Profile bool

	// wrap, which only tests set, stands between every operator the builder
	// instantiates and its consumer.
	wrap func(Iterator) Iterator
	// onGate, which only tests set, is told the kind of every gate a scan
	// takes, and of every join that skipped its other input.
	onGate func(kind string)
}

func (e *Env) wrapped(it Iterator) Iterator {
	if e.wrap != nil {
		return e.wrap(it)
	}
	return it
}

func (e *Env) noteGate(kind string) {
	if e != nil && e.onGate != nil {
		e.onGate(kind)
	}
}

// valueFunc evaluates a scalar against a row.
type valueFunc func(storage.Row) (algebra.Value, error)

// compileScalar resolves a scalar expression against a schema, with
// parameters read from env at evaluation time.
func compileScalar(s algebra.Scalar, schema algebra.Schema, env *Env) (valueFunc, error) {
	switch e := s.(type) {
	case algebra.ColExpr:
		idx := schema.IndexOf(e.C)
		if idx < 0 {
			return nil, fmt.Errorf("exec: column %v not in schema %v", e.C, schema)
		}
		return func(r storage.Row) (algebra.Value, error) { return r[idx], nil }, nil
	case algebra.ConstExpr:
		v := e.V
		return func(storage.Row) (algebra.Value, error) { return v, nil }, nil
	case algebra.ParamExpr:
		name := e.Name
		return func(storage.Row) (algebra.Value, error) {
			v, ok := env.Params[name]
			if !ok {
				return algebra.Value{}, fmt.Errorf("exec: unbound parameter %q", name)
			}
			return v, nil
		}, nil
	case algebra.BinExpr:
		lf, err := compileScalar(e.L, schema, env)
		if err != nil {
			return nil, err
		}
		rf, err := compileScalar(e.R, schema, env)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(r storage.Row) (algebra.Value, error) {
			lv, err := lf(r)
			if err != nil {
				return algebra.Value{}, err
			}
			rv, err := rf(r)
			if err != nil {
				return algebra.Value{}, err
			}
			a, b := lv.AsFloat(), rv.AsFloat()
			var out float64
			switch op {
			case algebra.Add:
				out = a + b
			case algebra.Sub:
				out = a - b
			case algebra.Mul:
				out = a * b
			case algebra.Div:
				if b == 0 {
					return algebra.Value{}, fmt.Errorf("exec: division by zero")
				}
				out = a / b
			}
			return algebra.FloatVal(out), nil
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown scalar %T", s)
}

// predFunc evaluates a predicate against a row.
type predFunc func(storage.Row) (bool, error)

// compilePred resolves a CNF predicate against a schema.
func compilePred(p algebra.Predicate, schema algebra.Schema, env *Env) (predFunc, error) {
	clauses := make([][]predFunc, len(p.Conj))
	for i, cl := range p.Conj {
		for _, c := range cl.Disj {
			f, err := compileCmp(c, schema, env)
			if err != nil {
				return nil, err
			}
			clauses[i] = append(clauses[i], f)
		}
	}
	if len(clauses) == 1 && len(clauses[0]) == 1 {
		return clauses[0][0], nil
	}
	return func(r storage.Row) (bool, error) {
		for _, cl := range clauses {
			hit := false
			for _, c := range cl {
				ok, err := c(r)
				if err != nil {
					return false, err
				}
				if ok {
					hit = true
					break
				}
			}
			if !hit {
				return false, nil
			}
		}
		return true, nil
	}, nil
}

// compileCmp resolves one comparison. A column against a numeric constant,
// in either order, compares the column's number with the constant's
// directly, as algebra.Compare would (by AsFloat and CompareFloat); a row
// whose value there is a string falls back to Compare.
func compileCmp(c algebra.Comparison, schema algebra.Schema, env *Env) (predFunc, error) {
	if idx, op, k, ok := colVsNumber(c, schema); ok {
		kf := k.AsFloat()
		return func(r storage.Row) (bool, error) {
			if v := &r[idx]; v.IsNumeric() {
				return op.Holds(algebra.CompareFloat(v.AsFloat(), kf)), nil
			}
			return op.Eval(r[idx], k), nil
		}, nil
	}
	lf, err := compileScalar(c.L, schema, env)
	if err != nil {
		return nil, err
	}
	rf, err := compileScalar(c.R, schema, env)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(r storage.Row) (bool, error) {
		lv, err := lf(r)
		if err != nil {
			return false, err
		}
		rv, err := rf(r)
		if err != nil {
			return false, err
		}
		return op.Eval(lv, rv), nil
	}, nil
}

// colVsNumber matches col op number and number op col, the latter with the
// operator flipped, for a column of the schema.
func colVsNumber(c algebra.Comparison, schema algebra.Schema) (idx int, op algebra.CmpOp, k algebra.Value, ok bool) {
	col, isCol := c.L.(algebra.ColExpr)
	num, isConst := c.R.(algebra.ConstExpr)
	op = c.Op
	if !isCol || !isConst {
		col, isCol = c.R.(algebra.ColExpr)
		num, isConst = c.L.(algebra.ConstExpr)
		op = op.Flip()
	}
	if !isCol || !isConst || !num.V.IsNumeric() {
		return 0, 0, algebra.Value{}, false
	}
	if idx = schema.IndexOf(col.C); idx < 0 {
		return 0, 0, algebra.Value{}, false
	}
	return idx, op, num.V, true
}

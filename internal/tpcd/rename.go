package tpcd

import (
	"mqo/internal/algebra"
	"mqo/internal/catalog"
)

// SuffixAliases rewrites a query tree so that every relation alias (and
// every column qualifier) carries the given suffix. Suffixing each query of
// a batch differently removes all overlap between queries, which is the
// paper's §6.4 no-sharing overhead experiment. The catalog must contain the
// renamed tables; see RenamedCatalog.
func SuffixAliases(t *algebra.Tree, sfx string) *algebra.Tree {
	out := &algebra.Tree{Op: suffixOp(t.Op, sfx)}
	for _, in := range t.Inputs {
		out.Inputs = append(out.Inputs, SuffixAliases(in, sfx))
	}
	return out
}

func suffixCol(c algebra.Column, sfx string) algebra.Column {
	return algebra.Col(c.Rel+sfx, c.Name)
}

func suffixScalar(s algebra.Scalar, sfx string) algebra.Scalar {
	switch e := s.(type) {
	case algebra.ColExpr:
		return algebra.ColExpr{C: suffixCol(e.C, sfx)}
	case algebra.BinExpr:
		return algebra.BinExpr{Op: e.Op, L: suffixScalar(e.L, sfx), R: suffixScalar(e.R, sfx)}
	default:
		return s
	}
}

func suffixPred(p algebra.Predicate, sfx string) algebra.Predicate {
	out := algebra.Predicate{}
	for _, cl := range p.Conj {
		nc := algebra.Clause{}
		for _, cmp := range cl.Disj {
			nc.Disj = append(nc.Disj, algebra.Comparison{
				L: suffixScalar(cmp.L, sfx), Op: cmp.Op, R: suffixScalar(cmp.R, sfx),
			})
		}
		out.Conj = append(out.Conj, nc)
	}
	return out
}

func suffixOp(op algebra.Op, sfx string) algebra.Op {
	switch o := op.(type) {
	case algebra.Scan:
		return algebra.Scan{Table: o.Table + sfx, Alias: o.Alias + sfx}
	case algebra.Select:
		return algebra.Select{Pred: suffixPred(o.Pred, sfx)}
	case algebra.Join:
		return algebra.Join{Pred: suffixPred(o.Pred, sfx)}
	case algebra.Aggregate:
		gb := make([]algebra.Column, len(o.GroupBy))
		for i, c := range o.GroupBy {
			gb[i] = suffixCol(c, sfx)
		}
		aggs := make([]algebra.AggExpr, len(o.Aggs))
		for i, a := range o.Aggs {
			var arg algebra.Scalar
			if a.Arg != nil {
				arg = suffixScalar(a.Arg, sfx)
			}
			aggs[i] = algebra.AggExpr{Func: a.Func, Arg: arg, As: suffixCol(a.As, sfx)}
		}
		return algebra.Aggregate{GroupBy: gb, Aggs: aggs}
	case algebra.Project:
		exprs := make([]algebra.NamedScalar, len(o.Exprs))
		for i, ne := range o.Exprs {
			exprs[i] = algebra.NamedScalar{Expr: suffixScalar(ne.Expr, sfx), As: suffixCol(ne.As, sfx), Typ: ne.Typ}
		}
		return algebra.Project{Exprs: exprs}
	default:
		return op
	}
}

// RenamedBatch builds the §6.4 no-overlap workload: the BQ batch with every
// query's relations renamed apart.
func RenamedBatch(i int) []*algebra.Tree {
	base := BatchQueries(i)
	out := make([]*algebra.Tree, len(base))
	for qi, q := range base {
		out[qi] = SuffixAliases(q, renameSuffix(qi))
	}
	return out
}

func renameSuffix(qi int) string { return "_r" + string(rune('a'+qi)) }

// TenantBatch builds a multi-tenant workload: m copies of the BQ_i batch,
// with every relation of copy j renamed with a per-tenant suffix. Sharing
// within a tenant's queries is fully preserved while tenants share
// nothing — the shape a micro-batching service produces when it coalesces
// unrelated sessions' traffic into one MQO batch. The catalog must contain
// the tenant copies; see TenantCatalog.
func TenantBatch(i, m int) []*algebra.Tree {
	base := BatchQueries(i)
	out := make([]*algebra.Tree, 0, m*len(base))
	for j := 0; j < m; j++ {
		for _, q := range base {
			out = append(out, SuffixAliases(q, renameSuffix(j)))
		}
	}
	return out
}

// TenantCatalog returns a catalog holding the base TPC-D tables plus the
// m per-tenant renamed copies used by TenantBatch, all at the given scale
// factor.
func TenantCatalog(sf float64, m int) *catalog.Catalog {
	base := Catalog(sf)
	names := base.Names()
	for j := 0; j < m; j++ {
		sfx := renameSuffix(j)
		for _, name := range names {
			t := base.MustTable(name)
			cp := *t
			cp.Name = name + sfx
			base.Add(&cp)
		}
	}
	return base
}

// RenamedCatalog returns a catalog holding the base TPC-D tables plus the
// renamed per-query copies used by RenamedBatch(i), all at the given scale
// factor. RenamedBatch(i) holds 2i queries, each with its own suffix.
func RenamedCatalog(sf float64, i int) *catalog.Catalog {
	return TenantCatalog(sf, 2*i)
}

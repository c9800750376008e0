package cost_test

import (
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/tpcd"
)

// BenchmarkApplyJoin derives the profile of a join whose inputs are
// themselves join chains, as DAG expansion does once per new join group:
// lineitem ⋈ orders ⋈ customer on one side, supplier ⋈ nation on the other,
// joined on a column from the bottom of each chain.
func BenchmarkApplyJoin(b *testing.B) {
	est := cost.Estimator{Cat: tpcd.Catalog(1)}
	base := func(table string) cost.Rel {
		r, err := est.BaseRel(table, table)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	eq := func(lt, lc, rt, rc string) algebra.Predicate {
		return algebra.ColEq(algebra.Col(lt, lc), algebra.Col(rt, rc))
	}
	left := est.ApplyJoin(est.ApplyJoin(base("lineitem"), base("orders"), eq("lineitem", "lok", "orders", "ok")),
		base("customer"), eq("orders", "ock", "customer", "ck"))
	right := est.ApplyJoin(base("supplier"), base("nation"), eq("supplier", "snk", "nation", "nk"))
	pred := eq("lineitem", "lsk", "supplier", "sk")
	want := est.ApplyJoin(left, right, pred).Rows
	if want <= 0 {
		b.Fatalf("join estimated at %v rows", want)
	}
	b.ReportAllocs()
	for b.Loop() {
		if got := est.ApplyJoin(left, right, pred).Rows; got != want {
			b.Fatalf("rows %v, want %v", got, want)
		}
	}
}

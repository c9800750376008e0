package ssb

import (
	"mqo/internal/algebra"
)

// DrillParam is flight 1's drill-down in parameterized form: the base
// query's join and filters with the day-window refinement abstracted to a
// parameter pair [?dlo, ?dhi] over the date key, the whole body wrapped in
// Invoke so one optimized plan serves every window binding the batch
// supplies (exec.Env.ParamSets). This is the SSB face of the paper's §5
// parameterized queries — the drill-down flights are the same shape at
// successive parameter tightenings.
//
// The window is a range over date.dk (day granularity) deliberately: an
// equality parameter on an indexable low-cardinality column lets eager
// aggregation decorrelate the whole drill into a 12-row pre-aggregate, at
// which point per-binding caching has nothing left to add. At day
// granularity Greedy still materializes the parameter-free pre-aggregate, a
// year of daily revenue rows, and each binding filters it. Whether caching
// each binding's one-row result pays then depends on the statistics the
// drill is planned with. Over SF 0.002 data, with SF 0.002 statistics the
// pre-aggregate is estimated at 463 rows and no binding's saving beats its
// write, so the result cache admits none. With SF 0.01 statistics (2 314
// rows) the bindings are admitted, and a second batch whose windows overlap
// the first re-serves the overlapping ones from their cached tables
// (internal/cache's BenchmarkBindingReplay measures what that saves).
//
// times is the Invoke's invocation-count estimate (typically the number of
// bindings the batch will carry); bind the windows with DrillParamBindings.
func DrillParam(times int64) []*algebra.Tree {
	j := algebra.JoinT(algebra.ColEq(algebra.Col("lineorder", "lodate"), algebra.Col("date", "dk")),
		algebra.ScanT("lineorder"), algebra.ScanT("date"))
	base := algebra.SelectT(
		algebra.Cmp(algebra.Col("date", "dyear"), algebra.EQ, algebra.IntVal(1993)).
			And(algebra.Cmp(algebra.Col("lineorder", "lodisc"), algebra.GE, algebra.IntVal(1))).
			And(algebra.Cmp(algebra.Col("lineorder", "lodisc"), algebra.LE, algebra.IntVal(3))),
		j)
	tight := algebra.SelectT(
		algebra.CmpParam(algebra.Col("date", "dk"), algebra.GE, "dlo").
			And(algebra.CmpParam(algebra.Col("date", "dk"), algebra.LE, "dhi")),
		base)
	rev := algebra.BinExpr{
		Op: algebra.Mul,
		L:  algebra.ColOf("lineorder", "loprice"),
		R:  algebra.ColOf("lineorder", "lodisc"),
	}
	agg := algebra.AggT(nil,
		[]algebra.AggExpr{{Func: algebra.Sum, Arg: rev, As: algebra.Col("drill", "revenue")}},
		tight)
	return []*algebra.Tree{algebra.NewTree(algebra.Invoke{Times: times}, agg)}
}

// DrillParamBindings builds the parameter bindings for DrillParam: for each
// given month m of 1993, the day window covering the month's first ten days
// ({"dlo": 1993mm01, "dhi": 1993mm10}), in the given order (the executed
// output concatenates bindings in this order).
func DrillParamBindings(months ...int64) []map[string]algebra.Value {
	sets := make([]map[string]algebra.Value, len(months))
	for i, m := range months {
		base := 19930000 + m*100
		sets[i] = map[string]algebra.Value{
			"dlo": algebra.IntVal(base + 1),
			"dhi": algebra.IntVal(base + 10),
		}
	}
	return sets
}

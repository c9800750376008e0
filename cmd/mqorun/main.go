// Command mqorun optimizes a workload with a chosen algorithm, executes the
// plan on generated data, and reports plan cost, measured I/O and result
// sizes. The workload is either one of the built-in benchmarks or an ad hoc
// SQL batch over the TPC-D schema.
//
//	mqorun -workload bq -n 3 -alg greedy -sf 0.002
//	mqorun -workload cq -n 2 -alg volcano-ru
//	mqorun -workload q2ni -dag -analyze
//	mqorun -sql "SELECT nname, SUM(lprice) AS r FROM lineitem, supplier, nation \
//	             WHERE lsk = sk AND snk = nk GROUP BY nname"
//
// With -dag the expanded AND-OR DAG is printed first: its size, then each
// logical group with its sharability degree and its operation nodes. With
// -analyze each run's plan is re-printed EXPLAIN ANALYZE style: per
// operator, the optimizer's estimated cost and cardinality against the
// measured rows, pages and wall time.
//
// A bad flag, or an unknown workload or algorithm, exits with status 2;
// a failed run with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mqo"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mqorun: %v\n", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line mqorun cannot run at all.
type usageError struct{ error }

// namedWorkload is one built-in workload: the catalog and data generator of
// its schema, and its queries given -n (1..maxN; a workload with maxN 0
// ignores it) and the scale factor. A nested workload's Invoke runs once
// per outer part key, bound as pk = 1..tpcd.Q2Invocations(sf).
type namedWorkload struct {
	name    string
	catalog func(sf float64) *mqo.Catalog
	load    func(db *mqo.DB, sf float64, seed int64) error
	maxN    int
	queries func(n int, sf float64) []*mqo.Query
	nested  bool
}

var workloads = []namedWorkload{
	{"bq", tpcd.Catalog, tpcd.LoadDB, 5, func(n int, _ float64) []*mqo.Query { return tpcd.BatchQueries(n) }, false},
	{"cq", psp.Catalog, psp.LoadDB, 5, func(n int, _ float64) []*mqo.Query { return psp.CQ(n) }, false},
	{"q11", tpcd.Catalog, tpcd.LoadDB, 0, func(int, float64) []*mqo.Query { return []*mqo.Query{tpcd.Q11()} }, false},
	{"q15", tpcd.Catalog, tpcd.LoadDB, 0, func(int, float64) []*mqo.Query { return []*mqo.Query{tpcd.Q15()} }, false},
	{"q2", tpcd.Catalog, tpcd.LoadDB, 0, func(_ int, sf float64) []*mqo.Query { return tpcd.Q2(sf) }, true},
	{"q2d", tpcd.Catalog, tpcd.LoadDB, 0, func(int, float64) []*mqo.Query { return tpcd.Q2D() }, false},
	{"q2ni", tpcd.Catalog, tpcd.LoadDB, 0, func(_ int, sf float64) []*mqo.Query { return tpcd.Q2NI(sf) }, true},
	{"ssb", ssb.Catalog, ssb.LoadDB, ssb.NumFlights, func(n int, _ float64) []*mqo.Query { return ssb.Flight(n) }, false},
	{"ssbdrill", ssb.Catalog, ssb.LoadDB, ssb.NumFlights, func(n int, _ float64) []*mqo.Query { return ssb.DrillDownBatch(n, ssb.MaxDrillSteps) }, false},
}

func run(args []string, out io.Writer) error {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("mqorun", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a bad flag is reported on one line, by main
	workload := fs.String("workload", "bq", "workload: "+strings.Join(names, "|"))
	n := fs.Int("n", 2, "composite size for bq/cq (1-5), flight number for ssb/ssbdrill (1-4)")
	algName := fs.String("alg", "greedy", "algorithm: volcano|volcano-sh|volcano-ru|greedy")
	sf := fs.Float64("sf", 0.002, "data scale factor for execution")
	pool := fs.Int("pool", 1024, "buffer pool pages")
	resCache := fs.Int64("resultcache", 0, "cross-batch result-cache RAM budget in bytes (0 disables)")
	resCacheWarm := fs.Int64("resultcache-warm", 0, "disk-backed warm-tier budget in bytes (0 disables tiering)")
	repeat := fs.Int("repeat", 1, "run the batch this many times (with -resultcache, later passes hit the cache)")
	sqlSrc := fs.String("sql", "", "semicolon-separated SELECT batch over the TPC-D schema (overrides -workload)")
	showDAG := fs.Bool("dag", false, "print the expanded logical DAG with its groups' sharability degrees")
	analyze := fs.Bool("analyze", false, "EXPLAIN ANALYZE: print per-operator measured vs. estimated stats after execution")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.PrintDefaults()
			return nil
		}
		return usageError{err}
	}

	alg, err := mqo.ParseAlgorithm(*algName)
	if err != nil {
		return usageError{err}
	}
	// -sql batches run over the TPC-D schema.
	w := namedWorkload{catalog: tpcd.Catalog, load: tpcd.LoadDB}
	batch := mqo.Batch{Algorithm: alg, Analyze: *analyze}
	if *sqlSrc == "" {
		i := slices.IndexFunc(workloads, func(w namedWorkload) bool { return w.name == *workload })
		if i < 0 {
			return usageError{fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(names, "|"))}
		}
		w = workloads[i]
		if w.maxN > 0 && (*n < 1 || *n > w.maxN) {
			return usageError{fmt.Errorf("-n %d outside 1-%d for workload %s", *n, w.maxN, w.name)}
		}
		batch.Queries = w.queries(*n, *sf)
		if w.nested {
			for pk := int64(1); pk <= tpcd.Q2Invocations(*sf); pk++ {
				batch.ParamSets = append(batch.ParamSets, map[string]mqo.Value{"pk": mqo.IntVal(pk)})
			}
		}
	}

	db := mqo.NewDB(*pool)
	sessionOpts := []mqo.Option{mqo.WithDB(db)}
	if *resCache > 0 {
		sessionOpts = append(sessionOpts, mqo.WithResultCache(*resCache, *resCacheWarm))
	}
	opt, err := mqo.Open(w.catalog(*sf), sessionOpts...)
	if err != nil {
		return err
	}
	defer opt.Close()
	if *sqlSrc != "" {
		// Parse before generating data, so bad SQL fails fast.
		if batch.Queries, err = opt.ParseSQL(*sqlSrc); err != nil {
			return err
		}
	}
	if *showDAG {
		if err := printDAG(out, opt.Catalog(), batch.Queries); err != nil {
			return err
		}
	}
	if err := w.load(db, *sf, 1); err != nil {
		return fmt.Errorf("loading data: %w", err)
	}
	for pass := 1; pass <= max(*repeat, 1); pass++ {
		res, err := opt.Run(context.Background(), batch)
		if err != nil {
			return err
		}
		if *repeat > 1 {
			fmt.Fprintf(out, "== pass %d/%d ==\n", pass, *repeat)
		}
		fmt.Fprintf(out, "queries=%d algorithm=%v\n", len(res.Queries), alg)
		fmt.Fprintf(out, "estimated cost: %.2f s   optimization time: %v   materialized nodes: %d\n",
			res.Cost, res.Stats.OptTime, len(res.Materialized))
		fmt.Fprintln(out, res.Plan)

		fmt.Fprintf(out, "executed: %d queries, %d rows total, reads=%d writes=%d, simulated time %.3f s, wall %v\n",
			len(res.Queries), res.Exec.RowsOut, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime, res.Exec.Wall)
		for i, qr := range res.Queries {
			fmt.Fprintf(out, "  query %d: %d rows\n", i, len(qr.Rows))
		}
		if *analyze {
			fmt.Fprintln(out, "\n-- EXPLAIN ANALYZE --")
			fmt.Fprint(out, mqo.FormatAnalyze(res.Exec))
		}
	}
	if *resCache > 0 {
		st := opt.ResultCacheStats()
		fmt.Fprintf(out, "result cache: %d entries, %d/%d bytes, hit-rate %.0f%%, admitted %d, evicted %d, est saved %.2f s\n",
			st.Entries, st.UsedBytes, st.BudgetBytes, 100*st.HitRate(), st.Admissions, st.Evictions, st.SavedCostEst)
		if *resCacheWarm > 0 {
			fmt.Fprintf(out, "warm tier: %d entries, %d/%d bytes, warm hits %d, demotions %d, promotions %d\n",
				st.WarmEntries, st.WarmUsedBytes, st.WarmBudgetBytes, st.WarmHits, st.Demotions, st.Promotions)
		}
	}
	return nil
}

// printDAG prints the batch's expanded AND-OR DAG: a summary line, then
// every live logical group with its estimated rows, its sharability degree
// when above one, and its operation nodes by child group.
func printDAG(out io.Writer, cat *mqo.Catalog, queries []*mqo.Query) error {
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), queries)
	if err != nil {
		return err
	}
	degrees := core.ComputeSharability(pd, 0)
	groups := pd.L.LiveGroups()
	fmt.Fprintf(out, "queries: %d   logical groups: %d   operation nodes: %d (of %d derived, %d duplicates)   physical nodes: %d\n",
		len(queries), len(groups), pd.L.NumExprs(), pd.L.Derivations, pd.L.Duplicates, len(pd.Nodes))
	fmt.Fprintln(out, "\n-- expanded logical DAG --")
	for _, g := range groups {
		shar := ""
		if degrees[g] > 1 {
			shar = fmt.Sprintf("  [sharable, degree %.0f]", degrees[g])
		}
		fmt.Fprintf(out, "group %d (rows %.0f)%s\n", g.ID, g.Rel.Rows, shar)
		for _, e := range g.Exprs {
			children := make([]string, len(e.Children))
			for i, c := range e.Children {
				children[i] = fmt.Sprint(c.Find().ID)
			}
			tag := ""
			if e.Subsumption {
				tag = "  (subsumption)"
			}
			fmt.Fprintf(out, "  %s(%s)%s\n", e.Op, strings.Join(children, ","), tag)
		}
	}
	fmt.Fprintln(out)
	return nil
}

// Command mqoexplain dumps the expanded AND-OR DAG, sharability degrees and
// the chosen plan for a workload, for inspection and debugging.
//
//	mqoexplain -workload q11
//	mqoexplain -workload bq -n 2 -alg volcano-sh -dag
//	mqoexplain -workload bq -n 2 -analyze -sf 0.002
//
// With -analyze the workload is also executed on generated data and the
// plan is re-printed EXPLAIN ANALYZE style: per operator, the optimizer's
// estimated cost and cardinality against the measured rows, pages and wall
// time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mqo"
	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

func main() {
	workload := flag.String("workload", "q11", "workload: bq|cq|q11|q15|q2|q2d|q2ni|ssb|ssbdrill")
	n := flag.Int("n", 2, "composite size for bq/cq, flight number for ssb/ssbdrill")
	algName := flag.String("alg", "greedy", "algorithm: volcano|volcano-sh|volcano-ru|greedy")
	showDAG := flag.Bool("dag", false, "dump the expanded logical DAG")
	analyze := flag.Bool("analyze", false, "execute on generated data and print EXPLAIN ANALYZE")
	sf := flag.Float64("sf", 0.002, "data scale factor for -analyze execution")
	pool := flag.Int("pool", 1024, "buffer pool pages for -analyze execution")
	flag.Parse()

	var (
		queries []*algebra.Tree
		cat     *catalog.Catalog
		load    func(*mqo.DB, float64, int64) error
	)
	switch *workload {
	case "bq":
		queries, cat, load = tpcd.BatchQueries(*n), tpcd.Catalog(1), tpcd.LoadDB
	case "cq":
		queries, cat, load = psp.CQ(*n), psp.Catalog(1), psp.LoadDB
	case "q11":
		queries, cat, load = []*algebra.Tree{tpcd.Q11()}, tpcd.Catalog(1), tpcd.LoadDB
	case "q15":
		queries, cat, load = []*algebra.Tree{tpcd.Q15()}, tpcd.Catalog(1), tpcd.LoadDB
	case "q2":
		queries, cat, load = tpcd.Q2(1), tpcd.Catalog(1), tpcd.LoadDB
	case "q2d":
		queries, cat, load = tpcd.Q2D(), tpcd.Catalog(1), tpcd.LoadDB
	case "q2ni":
		queries, cat, load = tpcd.Q2NI(1), tpcd.Catalog(1), tpcd.LoadDB
	case "ssb":
		queries, cat, load = ssb.Flight(*n), ssb.Catalog(1), ssb.LoadDB
	case "ssbdrill":
		queries, cat, load = ssb.DrillDownBatch(*n, ssb.MaxDrillSteps), ssb.Catalog(1), ssb.LoadDB
	default:
		fmt.Fprintf(os.Stderr, "mqoexplain: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	alg, err := mqo.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqoexplain: %v\n", err)
		os.Exit(2)
	}

	pd, err := core.BuildDAG(cat, cost.DefaultModel(), queries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqoexplain: %v\n", err)
		os.Exit(1)
	}
	degrees := core.ComputeSharability(pd, 0)

	fmt.Printf("queries: %d   logical groups: %d   operation nodes: %d (of %d derived, %d duplicates)   physical nodes: %d\n",
		len(queries), len(pd.L.LiveGroups()), pd.L.NumExprs(), pd.L.Derivations, pd.L.Duplicates, len(pd.Nodes))

	if *showDAG {
		fmt.Println("\n-- expanded logical DAG --")
		for _, g := range pd.L.LiveGroups() {
			shar := ""
			if degrees[g] > 1 {
				shar = fmt.Sprintf("  [sharable, degree %.0f]", degrees[g])
			}
			fmt.Printf("group %d (rows %.0f)%s\n", g.ID, g.Rel.Rows, shar)
			for _, e := range g.Exprs {
				children := make([]string, len(e.Children))
				for i, c := range e.Children {
					children[i] = fmt.Sprint(c.Find().ID)
				}
				tag := ""
				if e.Subsumption {
					tag = "  (subsumption)"
				}
				fmt.Printf("  %s(%s)%s\n", e.Op, strings.Join(children, ","), tag)
			}
		}
	}

	res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqoexplain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n-- %v plan (estimated cost %.2f s, optimization %v) --\n", alg, res.Cost, res.Stats.OptTime)
	fmt.Print(res.Plan)
	if len(res.Materialized) > 0 {
		fmt.Println("\nmaterialized results:")
		for _, m := range res.Materialized {
			fmt.Printf("  node %d prop=%s rows=%.0f cost=%.2f matcost=%.2f reuse=%.2f\n",
				m.ID, m.Prop, m.LG.Rel.Rows, res.Plan.ByNode[m].Cost, m.MatCost, m.ReuseSeq)
		}
	}

	if *analyze {
		// Execute the same workload on generated data: the catalog is
		// rebuilt at the execution scale factor so estimates and data agree.
		db := mqo.NewDB(*pool)
		if err := load(db, *sf, 1); err != nil {
			fmt.Fprintf(os.Stderr, "mqoexplain: loading data: %v\n", err)
			os.Exit(1)
		}
		execCat := execCatalog(*workload, *sf)
		opt, err := mqo.Open(execCat, mqo.WithDB(db))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqoexplain: %v\n", err)
			os.Exit(1)
		}
		execQueries := execWorkload(*workload, *n)
		er, err := opt.Run(context.Background(), mqo.Batch{Queries: execQueries, Algorithm: alg, Analyze: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mqoexplain: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n-- EXPLAIN ANALYZE (sf=%g) --\n", *sf)
		fmt.Print(mqo.FormatAnalyze(er.Exec))
	}
}

// execCatalog rebuilds the workload's catalog at the execution scale
// factor.
func execCatalog(workload string, sf float64) *catalog.Catalog {
	switch workload {
	case "cq":
		return psp.Catalog(sf)
	case "ssb", "ssbdrill":
		return ssb.Catalog(sf)
	default:
		return tpcd.Catalog(sf)
	}
}

// execWorkload rebuilds the workload's queries for the execution pass, so
// the explain pass and the execution pass each optimize their own trees.
func execWorkload(workload string, n int) []*algebra.Tree {
	switch workload {
	case "bq":
		return tpcd.BatchQueries(n)
	case "cq":
		return psp.CQ(n)
	case "q11":
		return []*algebra.Tree{tpcd.Q11()}
	case "q15":
		return []*algebra.Tree{tpcd.Q15()}
	case "q2":
		return tpcd.Q2(1)
	case "q2d":
		return tpcd.Q2D()
	case "q2ni":
		return tpcd.Q2NI(1)
	case "ssb":
		return ssb.Flight(n)
	case "ssbdrill":
		return ssb.DrillDownBatch(n, ssb.MaxDrillSteps)
	}
	return nil
}

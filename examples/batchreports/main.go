// Batch reporting: the paper's Experiment 2 scenario. A nightly reporting
// job submits TPC-D queries Q3, Q5, Q7, Q9 and Q10 — each twice with
// different constants — as one batch. The example optimizes the batch with
// all four algorithms, shows where the savings come from (which
// subexpressions Greedy materializes), and executes both the No-MQO and
// MQO plans on generated data to compare measured I/O.
package main

import (
	"context"
	"fmt"
	"log"

	"mqo"
	"mqo/internal/tpcd"
)

func main() {
	const (
		batch = 3     // BQ3: Q3, Q5, Q7 twice each
		sf    = 0.005 // execution data scale
	)
	queries := tpcd.BatchQueries(batch)
	ctx := context.Background()

	// Optimization study at SF 1 statistics, as in the paper's Figure 8.
	study, err := mqo.Open(tpcd.Catalog(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch BQ%d: %d queries\n\n", batch, len(queries))
	for _, alg := range mqo.Algorithms() {
		res, err := study.OptimizeBatch(ctx, queries, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11v estimated cost %9.1f s (optimization %v)\n", alg, res.Cost, res.Stats.OptTime.Round(1000))
	}

	greedy, err := study.OptimizeBatch(ctx, queries, mqo.Greedy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nshared results Greedy materializes:")
	for _, m := range greedy.Materialized {
		// The plan node carries the cost; the DAG node's is the session's
		// scratch, rewritten by its next optimization of this batch.
		fmt.Printf("  node %d %-24s rows %.0f (compute %.1f s, write %.1f s, reuse %.1f s)\n",
			m.ID, m.Prop, m.LG.Rel.Rows, greedy.Plan.ByNode[m].Cost, m.MatCost, m.ReuseSeq)
	}

	// Execution comparison on generated data: a second session at the
	// execution scale, with a database attached.
	db := mqo.NewDB(512)
	if err := tpcd.LoadDB(db, sf, 42); err != nil {
		log.Fatal(err)
	}
	runner, err := mqo.Open(tpcd.Catalog(sf), mqo.WithDB(db))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuting at SF %g:\n", sf)
	for _, alg := range []mqo.Algorithm{mqo.Volcano, mqo.Greedy} {
		res, err := runner.Run(ctx, mqo.Batch{Queries: queries, Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11v reads=%5d writes=%5d simulated=%6.3f s wall=%v queries=%d rows=%d\n",
			alg, res.Exec.IO.Reads, res.Exec.IO.Writes, res.Exec.SimTime,
			res.Exec.Wall.Round(1000000), len(res.Queries), res.Exec.RowsOut)
	}
}

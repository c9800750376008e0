package exec

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/physical"
)

// TestSpoolAndCacheScanRoundTrip drives the exec layer's two result-cache
// halves end to end: a first run spools a materialized intermediate and a
// query root into cache tables (Env.Cache.Spools), then a second run over a
// freshly built DAG armed with CacheScan access paths reads them back. The
// second run must return byte-identical rows with strictly less page I/O
// (cache tables are scanned, the join pipeline never runs).
func TestSpoolAndCacheScanRoundTrip(t *testing.T) {
	db, cat := makeWorld(t)
	model := cost.DefaultModel()
	queries := []*algebra.Tree{
		chainQ([]string{"A", "B", "C"}, 95),
		chainQ([]string{"A", "B"}, 95),
	}

	pd, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Spool every non-index materialization plus both query roots.
	spools := map[*physical.Node]string{}
	name := func(n *physical.Node) string { return "rc_exec_" + string(rune('a'+len(spools))) }
	for _, m := range res.Plan.Mats {
		if m.E.Kind != physical.IndexBuildEnf {
			spools[m.N] = name(m.N)
		}
	}
	roots := res.Plan.Root.Children
	for _, q := range roots {
		if !q.Mat {
			if _, ok := spools[q.N]; !ok {
				spools[q.N] = name(q.N)
			}
		}
	}
	if len(spools) == 0 {
		t.Fatal("workload produced nothing to spool")
	}

	first, firstStats, err := Run(context.Background(), db, model, res.Plan,
		&Env{Cache: &CacheIO{Spools: spools}})
	if err != nil {
		t.Fatal(err)
	}
	for n, table := range spools {
		if _, err := db.Cache(table); err != nil {
			t.Fatalf("node %d not spooled to %s: %v", n.ID, table, err)
		}
	}

	// Second pass: fresh DAG, armed with the spooled roots' tables.
	pd2, err := core.BuildDAG(cat, model, queries)
	if err != nil {
		t.Fatal(err)
	}
	armedTables := map[string]bool{}
	for i, qn := range pd.QueryRoots {
		table, ok := spools[qn]
		if !ok { // Mat root spooled under its own node
			for _, q := range roots {
				if q == res.Plan.Node(qn) {
					table, ok = spools[q.N], true
				}
			}
		}
		if !ok {
			continue
		}
		n2 := pd2.QueryRoots[i]
		blocks := float64(db.CacheBytes(table)) / float64(model.BlockSize)
		pd2.ArmCacheScan(n2, table, model.ScanCost(blocks), cost.TierRAM)
		armedTables[table] = true
	}
	if len(armedTables) == 0 {
		t.Fatal("nothing armed")
	}
	res2, err := core.Optimize(context.Background(), pd2, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cacheScans := 0
	res2.Plan.Root.Walk(func(pn *physical.PlanNode) {
		if pn.E.Kind == physical.CacheScanOp {
			cacheScans++
		}
	})
	if cacheScans == 0 {
		t.Fatalf("armed plan has no CacheScan leaves:\n%s", res2.Plan)
	}

	second, secondStats, err := Run(context.Background(), db, model, res2.Plan, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("result count changed: %d vs %d", len(second), len(first))
	}
	for i := range first {
		a, b := Canonicalize(first[i].Schema, first[i].Rows), Canonicalize(second[i].Schema, second[i].Rows)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d rows vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("query %d row %d differs:\n got %s\nwant %s", i, j, b[j], a[j])
			}
		}
	}
	if secondStats.IO.Reads >= firstStats.IO.Reads {
		t.Errorf("cache pass reads %d not below compute pass reads %d",
			secondStats.IO.Reads, firstStats.IO.Reads)
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/physical"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// bytesPerRun is the heap bytes one call of f allocates, averaged over runs
// after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestVolcanoSHRUBytes holds one Volcano-SH and one Volcano-RU optimization
// of the six-tenant BQ5 batch (3 337 physical nodes), on a DAG built once,
// to the bytes they allocate once the DAG keeps their drafts and scratch
// between searches. Nearly all of it is the sealed plan of ~630 nodes, with
// or without -race, so each bound is that plan and a small margin: a search
// that extracts node by node into a map, or makes scratch of its own, or
// scratch that spans the DAG, allocates more than twice the bound.
func TestVolcanoSHRUBytes(t *testing.T) {
	pd, err := BuildDAG(tpcd.TenantCatalog(1, 6), cost.DefaultModel(), tpcd.TenantBatch(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		alg   Algorithm
		bound uint64
	}{{VolcanoSH, 55_000}, {VolcanoRU, 56_000}} {
		got := bytesPerRun(5, func() {
			if _, err := Optimize(ctx, pd, c.alg, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.bound {
			t.Errorf("%v allocated %d bytes on the six-tenant BQ5, want at most %d", c.alg, got, c.bound)
		}
	}
}

// TestSearchAllocationsArePlanSized: a search on a DAG searched before
// allocates the plan it returns and a fixed handful of objects besides — the
// Result, the sealed plan's arrays, the materialized list, Greedy's phase
// map — however large the plan: each algorithm's bound holds for BQ5 (~100
// plan nodes), CQ5 (~250) and the six-tenant BQ5 (~620) alike, with or
// without -race. A search that allocates per plan node or per candidate
// makes hundreds to thousands of allocations and fails.
func TestSearchAllocationsArePlanSized(t *testing.T) {
	bound := map[Algorithm]float64{Volcano: 6, VolcanoSH: 12, VolcanoRU: 18, Greedy: 16}
	for _, b := range []struct {
		name    string
		cat     *catalog.Catalog
		queries []*algebra.Tree
	}{
		{"BQ5", tpcd.Catalog(1), tpcd.BatchQueries(5)},
		{"CQ5", psp.Catalog(1), psp.CQ(5)},
		{"BQ5x6", tpcd.TenantCatalog(1, 6), tpcd.TenantBatch(5, 6)},
	} {
		pd, err := BuildDAG(b.cat, cost.DefaultModel(), b.queries)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, alg := range Algorithms() {
			if _, err := Optimize(ctx, pd, alg, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, alg := range Algorithms() {
			got := testing.AllocsPerRun(5, func() {
				if _, err := Optimize(ctx, pd, alg, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if got > bound[alg] {
				t.Errorf("%s, %v: a search on a searched DAG made %.0f allocations, want at most %.0f", b.name, alg, got, bound[alg])
			}
		}
	}
}

// TestPlanParentsCountLinks: in the plans Volcano-SH and Volcano-RU return,
// every node's NumParents is the number of links to it from the plan's other
// nodes, after the subsumption prepass switched derivations in and the undo
// step switched some out again (recountParents).
func TestPlanParentsCountLinks(t *testing.T) {
	type batch struct {
		name    string
		cat     *catalog.Catalog
		queries []*algebra.Tree
	}
	var batches []batch
	for i := 1; i <= 5; i++ {
		batches = append(batches, batch{fmt.Sprintf("BQ%d", i), tpcd.Catalog(1), tpcd.BatchQueries(i)},
			batch{fmt.Sprintf("CQ%d", i), psp.Catalog(1), psp.CQ(i)})
	}
	rng := rand.New(rand.NewSource(3))
	for i := range 20 {
		batches = append(batches, batch{fmt.Sprintf("random %d", i), testCatalog(), randomBatch(rng)})
	}
	for _, b := range batches {
		pd, err := BuildDAG(b.cat, cost.DefaultModel(), b.queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{VolcanoSH, VolcanoRU} {
			res, err := Optimize(context.Background(), pd, alg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			links := map[*physical.PlanNode]int{}
			res.Plan.Root.Walk(func(pn *physical.PlanNode) {
				for _, c := range pn.Children {
					links[c]++
				}
			})
			res.Plan.Root.Walk(func(pn *physical.PlanNode) {
				if pn.NumParents != links[pn] {
					t.Errorf("%s, %v: node %d counts %d parents, the plan links it %d times", b.name, alg, pn.N.ID, pn.NumParents, links[pn])
				}
			})
		}
	}
}

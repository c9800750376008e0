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
// to the bytes they allocated once their scratch was sized to the plan
// instead of the DAG: 124 904 and 276 544 bytes (about 287 000 for
// Volcano-RU under -race), against 322 128 and 648 816 when every call and
// every pass allocated arrays over every physical node.
func TestVolcanoSHRUBytes(t *testing.T) {
	pd, err := BuildDAG(tpcd.TenantCatalog(1, 6), cost.DefaultModel(), tpcd.TenantBatch(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		alg   Algorithm
		bound uint64
	}{{VolcanoSH, 140_000}, {VolcanoRU, 320_000}} {
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

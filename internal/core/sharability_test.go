package core

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/physical"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// The §4.1 pass as it ran before the logical DAG was flattened into arrays,
// kept as the model the array kernel is held to: one scratch map keyed by
// group pointer, every group of the order visited for every z.

func mapTopoOrder(root *dag.Group) []*dag.Group {
	var order []*dag.Group
	seen := map[*dag.Group]bool{}
	var visit func(g *dag.Group)
	visit = func(g *dag.Group) {
		g = g.Find()
		if seen[g] {
			return
		}
		seen[g] = true
		for _, e := range g.Exprs {
			for _, c := range e.Children {
				visit(c)
			}
		}
		order = append(order, g)
	}
	visit(root)
	return order
}

func mapDegreeOfSharing(order []*dag.Group, z, root *dag.Group, e map[*dag.Group]float64) float64 {
	for _, g := range order {
		if g == z {
			e[g] = 1
			continue
		}
		best := 0.0
		for _, ex := range g.Exprs {
			w := 1.0
			if iv, ok := ex.Op.(algebra.Invoke); ok {
				w = float64(iv.Times)
			}
			sum := 0.0
			for _, c := range ex.Children {
				sum += w * e[c.Find()]
			}
			if sum > best {
				best = sum
			}
		}
		e[g] = best
	}
	return e[root]
}

// sharabilityBatches are the batches the kernel is checked on — the paper's
// largest TPC-D and chain batches, the six-tenant batch, and a nested query
// whose Invoke weighs its body by the invocation count — and, but for the
// last, timed on.
var sharabilityBatches = []struct {
	name    string
	cat     func() *catalog.Catalog
	queries func() []*algebra.Tree
}{
	{"BQ5", func() *catalog.Catalog { return tpcd.Catalog(1) }, func() []*algebra.Tree { return tpcd.BatchQueries(5) }},
	{"CQ5", func() *catalog.Catalog { return psp.Catalog(1) }, func() []*algebra.Tree { return psp.CQ(5) }},
	{"BQ5x6", func() *catalog.Catalog { return tpcd.TenantCatalog(1, 6) }, func() []*algebra.Tree { return tpcd.TenantBatch(5, 6) }},
	{"Q2", func() *catalog.Catalog { return tpcd.Catalog(1) }, func() []*algebra.Tree { return tpcd.Q2(1) }},
}

// TestSharabilityMatchesRecurrence: the array kernel returns, for every
// group, exactly the degree the map-based pass computes, and marks the same
// nodes sharable.
func TestSharabilityMatchesRecurrence(t *testing.T) {
	for _, b := range sharabilityBatches {
		t.Run(b.name, func(t *testing.T) {
			pd, err := BuildDAG(b.cat(), cost.DefaultModel(), b.queries())
			if err != nil {
				t.Fatal(err)
			}
			root := pd.Root.LG
			order := mapTopoOrder(root)
			want := map[*dag.Group]float64{}
			scratch := map[*dag.Group]float64{}
			above := 0
			for _, z := range order {
				if z != root {
					want[z] = mapDegreeOfSharing(order, z, root, scratch)
					if want[z] > 1 {
						above++
					}
				}
			}
			if above == 0 {
				t.Fatal("no group is shared: the batch checks nothing")
			}
			got := ComputeSharability(pd)
			if len(got) != len(want) {
				t.Fatalf("%d degrees, model %d", len(got), len(want))
			}
			for g, d := range want {
				if gd, ok := got[g]; !ok || gd != d {
					t.Fatalf("group %d degree %v, model %v", g.ID, gd, d)
				}
			}
			for _, n := range pd.Nodes {
				if n.Sharable != (want[n.LG] > 1 && !n.LG.ParamDep) {
					t.Fatalf("node %d sharable=%v at degree %v", n.ID, n.Sharable, want[n.LG])
				}
			}
		})
	}
}

// BenchmarkSharability times the §4.1 analysis alone.
func BenchmarkSharability(b *testing.B) {
	for _, batch := range sharabilityBatches[:3] {
		b.Run(batch.name, func(b *testing.B) {
			pd, err := BuildDAG(batch.cat(), cost.DefaultModel(), batch.queries())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if len(ComputeSharability(pd)) == 0 {
					b.Fatal("no degrees")
				}
			}
		})
	}
}

// TestSharabilityMemo: the degrees a DAG keeps from its first greedy search
// serve every later one. On one DAG, Greedy, then Greedy with the
// sharability ablation (which marks every node sharable), then Greedy again
// must each return what the same run returns on a fresh DAG — plan, cost,
// materialized set and sharable-node count — and the kept degrees must equal
// a fresh analysis's, also after the result cache armed the DAG.
func TestSharabilityMemo(t *testing.T) {
	for _, b := range sharabilityBatches {
		t.Run(b.name, func(t *testing.T) {
			build := func() *physical.DAG {
				pd, err := BuildDAG(b.cat(), cost.DefaultModel(), b.queries())
				if err != nil {
					t.Fatal(err)
				}
				return pd
			}
			pd := build()
			for i, opts := range []Options{{}, {Greedy: GreedyOptions{DisableSharability: true}}, {}} {
				got, err := Optimize(context.Background(), pd, Greedy, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Optimize(context.Background(), build(), Greedy, opts)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderGolden(got), renderGolden(want); g != w {
					t.Fatalf("run %d on the kept DAG:\n%s\nfresh DAG:\n%s", i, g, w)
				}
				if got.Stats.SharableNodes != want.Stats.SharableNodes {
					t.Fatalf("run %d: %d sharable nodes, fresh DAG %d", i, got.Stats.SharableNodes, want.Stats.SharableNodes)
				}
			}
			kept := scratchOf(pd).degrees
			if kept == nil {
				t.Fatal("no degrees kept on the DAG")
			}
			pd.ArmCacheScan(pd.QueryRoots[0], "rc_memo", 0.5, cost.TierRAM)
			fresh := ComputeSharability(pd)
			if len(kept) != len(fresh) {
				t.Fatalf("%d kept degrees, fresh analysis %d", len(kept), len(fresh))
			}
			for g, d := range fresh {
				if kd, ok := kept[g]; !ok || kd != d {
					t.Fatalf("group %d: kept degree %v, fresh %v", g.ID, kd, d)
				}
			}
		})
	}
}

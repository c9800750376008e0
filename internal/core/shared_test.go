package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/physical"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// resultSignature renders everything of a Result that must not depend on
// which DAG it came from or on timing: the cost's bits, the materialized
// set, every Stats counter and the plan.
func resultSignature(res *Result) string {
	st := res.Stats
	st.OptTime, st.Phases = 0, nil
	return fmt.Sprintf("%v cost=%x noshare=%x mats=%v stats=%+v\n%s", res.Algorithm,
		math.Float64bits(float64(res.Cost)), math.Float64bits(float64(res.NoShareCost)),
		materializedIDs(res), st, res.Plan)
}

func materializedIDs(res *Result) []int {
	ids := make([]int, len(res.Materialized))
	for i, m := range res.Materialized {
		ids[i] = m.ID
	}
	return ids
}

// TestSharedLogicalDAGConcurrent: a finalized logical DAG is read-only, so
// any number of goroutines may each build a physical DAG over one and
// search it. Eight do, under all four algorithms, and every Result must
// equal the one a fresh, unshared build gives — under -race, any write to the
// shared DAG is a report.
func TestSharedLogicalDAGConcurrent(t *testing.T) {
	const goroutines = 8
	model := cost.DefaultModel()
	workloads := []struct {
		name    string
		cat     *catalog.Catalog
		queries []*algebra.Tree
	}{
		{"BQ5x6", tpcd.TenantCatalog(1, 6), tpcd.TenantBatch(5, 6)},
		{"CQ5", psp.Catalog(1), psp.CQ(5)},
	}
	for f := 1; f <= 4; f++ {
		workloads = append(workloads, struct {
			name    string
			cat     *catalog.Catalog
			queries []*algebra.Tree
		}{fmt.Sprintf("SSB%d", f), ssb.Catalog(1), ssb.Flight(f)})
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want := map[Algorithm]string{}
			for _, alg := range Algorithms() {
				pd, err := BuildDAG(w.cat, model, w.queries)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Optimize(ctx, pd, alg, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want[alg] = resultSignature(res)
			}

			ld, err := BuildLogical(w.cat, w.queries)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					algs := Algorithms()
					for i := range algs { // each goroutine starts at another algorithm
						alg := algs[(g+i)%len(algs)]
						pd, err := physical.Build(ld, model)
						if err != nil {
							t.Error(err)
							return
						}
						res, err := Optimize(ctx, pd, alg, Options{})
						if err != nil {
							t.Error(err)
							return
						}
						if got := resultSignature(res); got != want[alg] {
							t.Errorf("goroutine %d, %v: result on the shared DAG differs from a fresh build's:\n%s",
								g, alg, diffHint(want[alg], got))
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestPlanCostsOutliveTheDAG: the four algorithms run on one DAG in turn, as
// a session's calls do. Each Result's plan nodes carry the costs their nodes
// had when it was returned, and keep them while the later runs rewrite the
// DAG's costs (DAG.CostOf) under them. Each Result's plan is its own: after
// three more rounds of all four algorithms on the DAG, whose searches reuse
// the DAG's drafts and scratch, it prints the same plan and reports the same
// Mats, and every node the same Index, NumParents, Mat, Cost and children.
func TestPlanCostsOutliveTheDAG(t *testing.T) {
	pd, err := BuildDAG(tpcd.Catalog(1), cost.DefaultModel(), tpcd.BatchQueries(5))
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{Greedy, VolcanoRU, Volcano, VolcanoSH}
	var results []*Result
	var snapshots []string
	for _, alg := range algs {
		res, err := Optimize(context.Background(), pd, alg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Plan.Nodes {
			if pn := &res.Plan.Nodes[i]; pn.Cost != pd.CostOf(pn.N) {
				t.Errorf("%v: plan node %d reports %v, its node costs %v", alg, pn.N.ID, pn.Cost, pd.CostOf(pn.N))
			}
		}
		results = append(results, res)
		snapshots = append(snapshots, planSnapshot(res.Plan))
	}
	for range 3 {
		for _, alg := range algs {
			if _, err := Optimize(context.Background(), pd, alg, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	moved := 0
	for i, res := range results {
		if got := planSnapshot(res.Plan); got != snapshots[i] {
			t.Errorf("%v's plan changed under later searches:\n%s", algs[i], diffHint(snapshots[i], got))
		}
		for j := range res.Plan.Nodes {
			if pn := &res.Plan.Nodes[j]; pd.CostOf(pn.N) != pn.Cost {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Error("no later run moved a cost an earlier plan reports")
	}
}

// planSnapshot renders what a caller reads of a plan: its String, its Mats
// and, for every plan node, its Index, NumParents, Mat, Cost bits and the
// plan nodes its children are (addresses and indexes).
func planSnapshot(p *physical.Plan) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, m := range p.Mats {
		fmt.Fprintf(&b, "mat %p %d\n", m, m.Index)
	}
	for i := range p.Nodes {
		pn := &p.Nodes[i]
		fmt.Fprintf(&b, "%p index %d node %d parents %d mat %v cost %x children", pn, pn.Index, pn.N.ID,
			pn.NumParents, pn.Mat, math.Float64bits(float64(pn.Cost)))
		for _, c := range pn.Children {
			fmt.Fprintf(&b, " %p/%d", c, c.Index)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOneViewPerDAG: a DAG keeps one costing state for every search it
// runs, and what-ifs roll back on it. On one BQ5 DAG, back to back: the four
// algorithms, Greedy's exhaustive and space-budget loops, a Greedy and a
// Volcano-RU run each cancelled inside a span of what-ifs, then Greedy and
// Volcano-RU again. Every run returns what the same run returns on a fresh
// build — plan, cost bits, materialized set and every Stats counter, or the
// same error — and every search starts on the state a fresh build has:
// nothing materialized, every cost bit-equal, zero counters.
func TestOneViewPerDAG(t *testing.T) {
	build := func() *physical.DAG {
		pd, err := BuildDAG(tpcd.Catalog(1), cost.DefaultModel(), tpcd.BatchQueries(5))
		if err != nil {
			t.Fatal(err)
		}
		return pd
	}
	fresh := build()
	pristine := func(pd *physical.DAG) error {
		if p, r := pd.Counters(); p != 0 || r != 0 {
			return fmt.Errorf("counters %d, %d", p, r)
		}
		if pd.TotalCost() != fresh.TotalCost() {
			return fmt.Errorf("total %v, a fresh build's %v", pd.TotalCost(), fresh.TotalCost())
		}
		for i, n := range pd.Nodes {
			if m := fresh.Nodes[i]; pd.CostOf(n) != fresh.CostOf(m) || pd.Materialized(n) {
				return fmt.Errorf("node %d costs %v (materialized %v), on a fresh build %v",
					n.ID, pd.CostOf(n), pd.Materialized(n), fresh.CostOf(m))
			}
		}
		return nil
	}
	exhaustive := Options{Greedy: GreedyOptions{DisableMonotonicity: true}}
	budget := Options{Greedy: GreedyOptions{SpaceBudgetBytes: 1 << 30}}
	runs := []struct {
		alg Algorithm
		opt Options
		// cancelAt is the countdownCtx poll the run is cancelled at, 0
		// for none: both land inside the search, after what-ifs.
		cancelAt int32
	}{
		{Volcano, Options{}, 0},
		{VolcanoSH, Options{}, 0},
		{VolcanoRU, Options{}, 0},
		{Greedy, Options{}, 0},
		{Greedy, exhaustive, 0},
		{Greedy, budget, 0},
		{Greedy, Options{}, 10},
		{VolcanoRU, Options{}, 4},
		{Greedy, Options{}, 0},
		{VolcanoRU, Options{}, 0},
	}
	run := func(pd *physical.DAG, alg Algorithm, opt Options, cancelAt int32) string {
		var ctx context.Context = context.Background()
		if cancelAt > 0 {
			ctx = &countdownCtx{Context: ctx, n: cancelAt}
		}
		res, err := Optimize(ctx, pd, alg, opt)
		if err != nil {
			return err.Error()
		}
		return resultSignature(res)
	}
	pd := build()
	for i, r := range runs {
		what := fmt.Sprintf("run %d (%v %+v, cancelled at %d)", i, r.alg, r.opt.Greedy, r.cancelAt)
		// What Optimize does first; a second Reset inside it changes nothing.
		pd.Reset()
		if err := pristine(pd); err != nil {
			t.Fatalf("%s starts on a costing state that is not a fresh build's: %v", what, err)
		}
		got, want := run(pd, r.alg, r.opt, r.cancelAt), run(build(), r.alg, r.opt, r.cancelAt)
		if got != want {
			t.Fatalf("%s on the kept DAG differs from a fresh build's:\n%s", what, diffHint(want, got))
		}
		if (r.cancelAt > 0) != (got == context.Canceled.Error()) {
			t.Fatalf("%s returned %.60q", what, got)
		}
	}
}

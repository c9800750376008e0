package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/ssb"
	"mqo/internal/tpcd"
)

// updateGolden regenerates the plan snapshots:
//
//	go test ./internal/core -run TestGoldenPlans -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden plan snapshots")

// renderGolden is the canonical snapshot text of an optimization result:
// algorithm, plan cost, the materialized set, then the consolidated plan.
// It is compared byte-for-byte, so any costing or plan-choice change —
// intended or not — shows up as a diff.
func renderGolden(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm: %v\n", res.Algorithm)
	fmt.Fprintf(&b, "cost: %.4f\n", res.Cost)
	fmt.Fprintf(&b, "noshare: %.4f\n", res.NoShareCost)
	ids := make([]string, len(res.Materialized))
	for i, m := range res.Materialized {
		ids[i] = fmt.Sprintf("%d", m.ID)
	}
	fmt.Fprintf(&b, "materialized: [%s]\n\n", strings.Join(ids, " "))
	b.WriteString(res.Plan.String())
	return b.String()
}

// goldenWorkloads lists the snapshot workloads: the paper's batched TPC-D
// composites BQ1..BQ5, the PSP scaleup composites CQ1..CQ5, the
// correlated / inverted / decorrelated Q2 family plus Q11 and Q15 — the
// stand-alone §6.1 queries — and the four SSB flights.
func goldenWorkloads() []struct {
	name    string
	cat     *catalog.Catalog
	queries []*algebra.Tree
} {
	tc := tpcd.Catalog(1)
	pc := psp.Catalog(1)
	sc := ssb.Catalog(1)
	return []struct {
		name    string
		cat     *catalog.Catalog
		queries []*algebra.Tree
	}{
		{"bq1", tc, tpcd.BatchQueries(1)},
		{"bq2", tc, tpcd.BatchQueries(2)},
		{"bq3", tc, tpcd.BatchQueries(3)},
		{"bq4", tc, tpcd.BatchQueries(4)},
		{"bq5", tc, tpcd.BatchQueries(5)},
		{"cq1", pc, psp.CQ(1)},
		{"cq2", pc, psp.CQ(2)},
		{"cq3", pc, psp.CQ(3)},
		{"cq4", pc, psp.CQ(4)},
		{"cq5", pc, psp.CQ(5)},
		{"q2", tc, tpcd.Q2(1)},
		{"q2ni", tc, tpcd.Q2NI(1)},
		{"q2d", tc, tpcd.Q2D()},
		{"q11", tc, []*algebra.Tree{tpcd.Q11()}},
		{"q15", tc, []*algebra.Tree{tpcd.Q15()}},
		{"ssb1", sc, ssb.Flight(1)},
		{"ssb2", sc, ssb.Flight(2)},
		{"ssb3", sc, ssb.Flight(3)},
		{"ssb4", sc, ssb.Flight(4)},
	}
}

// TestGoldenPlans locks the optimizer's output on the golden workloads
// under the three MQO heuristics, with the default Options{}.
func TestGoldenPlans(t *testing.T) {
	model := cost.DefaultModel()
	for _, w := range goldenWorkloads() {
		pd, err := BuildDAG(w.cat, model, w.queries)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, alg := range []Algorithm{VolcanoSH, VolcanoRU, Greedy} {
			name := fmt.Sprintf("%s_%s.plan", w.name, strings.ToLower(alg.String()))
			t.Run(name, func(t *testing.T) {
				res, err := Optimize(context.Background(), pd, alg, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := renderGolden(res)

				path := filepath.Join("testdata", "golden", name)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create the snapshot)", err)
				}
				if got != string(want) {
					t.Errorf("plan snapshot mismatch for %s (run with -update if the change is intended):\n%s",
						name, diffHint(string(want), got))
				}
			})
		}
	}
}

// diffHint reports the first differing line of two snapshots.
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d lines", len(wl), len(gl))
}

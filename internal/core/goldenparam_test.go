package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cache"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/ssb"
	"mqo/internal/storage"
	"mqo/internal/tpcd"
)

// TestGoldenPartialHitPlans locks the partial-hit plan shape: a store warmed
// by one parameterized pass must arm InvokePartial on a second pass whose
// binding sets overlap the first, and the armed plan must be byte-identical
// under all three algorithms' snapshots (same harness and -update flow as
// TestGoldenPlans). Two workloads cover the paper's §5 cases: the SSB
// drill-down step in parameterized form and the correlated TPC-D Q2
// not-in variant.
func TestGoldenPartialHitPlans(t *testing.T) {
	model := cost.DefaultModel()
	cases := []struct {
		name    string
		cat     *catalog.Catalog
		load    func(*storage.DB) error
		queries []*algebra.Tree
		warm    []map[string]algebra.Value
		sets    []map[string]algebra.Value
	}{
		{
			name:    "paramdrill",
			cat:     ssb.Catalog(0.01),
			load:    func(db *storage.DB) error { return ssb.LoadDB(db, 0.01, 17) },
			queries: ssb.DrillParam(4),
			warm:    ssb.DrillParamBindings(1, 2, 3, 4),
			sets:    ssb.DrillParamBindings(3, 4, 5, 6),
		},
		{
			name:    "q2nipartial",
			cat:     tpcd.Catalog(0.02),
			load:    func(db *storage.DB) error { return tpcd.LoadDB(db, 0.02, 17) },
			queries: tpcd.Q2NI(0.02),
			warm:    q2Bindings(1, 4),
			sets:    q2Bindings(3, 6),
		},
	}
	for _, c := range cases {
		db := storage.NewDB(1024)
		if err := c.load(db); err != nil {
			t.Fatalf("%s: load: %v", c.name, err)
		}
		store := cache.NewStoreTiered(db, model, 16<<20, 0, 1)

		// Warm-up pass: run the first binding window so its per-binding
		// results are spooled and committed.
		pd, err := BuildDAG(c.cat, model, c.queries)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ticket := store.Arm(pd, c.warm)
		res, err := Optimize(context.Background(), pd, Greedy, Options{})
		if err != nil {
			t.Fatalf("%s: warm-up optimize: %v", c.name, err)
		}
		env := &exec.Env{ParamSets: c.warm, Cache: &exec.CacheIO{
			Spools:     ticket.PlanSpools(res.Plan),
			BindSpools: ticket.BindingSpools(),
		}}
		if _, _, err := exec.Run(context.Background(), db, model, res.Plan, env); err != nil {
			ticket.Abort()
			t.Fatalf("%s: warm-up run: %v\nplan:\n%s", c.name, err, res.Plan)
		}
		ticket.Commit()

		// Snapshot pass: overlapping windows arm a partial hit; snapshot
		// the armed plan per algorithm.
		for _, alg := range []Algorithm{VolcanoSH, VolcanoRU, Greedy} {
			name := fmt.Sprintf("%s_%s.plan", c.name, strings.ToLower(alg.String()))
			t.Run(name, func(t *testing.T) {
				pd2, err := BuildDAG(c.cat, model, c.queries)
				if err != nil {
					t.Fatal(err)
				}
				t2 := store.Arm(pd2, c.sets)
				defer t2.Abort()
				res2, err := Optimize(context.Background(), pd2, alg, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := renderGolden(res2)
				if !strings.Contains(got, "InvokePartial") {
					t.Fatalf("no partial hit armed in the %s snapshot:\n%s", alg, got)
				}

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

// q2Bindings builds Q2's correlation bindings {"pk": k} for k in [lo, hi].
func q2Bindings(lo, hi int64) []map[string]algebra.Value {
	sets := make([]map[string]algebra.Value, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		sets = append(sets, map[string]algebra.Value{"pk": algebra.IntVal(k)})
	}
	return sets
}

package tpcd

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/storage"
)

func TestCatalogScales(t *testing.T) {
	c1 := Catalog(1)
	li, err := c1.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if li.Rows != 6000000 {
		t.Errorf("lineitem at SF1 = %d rows, want 6000000", li.Rows)
	}
	c100 := Catalog(100)
	if c100.MustTable("lineitem").Rows != 600000000 {
		t.Error("SF100 lineitem rows wrong")
	}
	for _, name := range c1.Names() {
		tab := c1.MustTable(name)
		if len(tab.Indexes) == 0 {
			t.Errorf("table %s lacks its clustered PK index", name)
		}
	}
}

func TestLoadDBConsistentWithCatalog(t *testing.T) {
	db := storage.NewDB(2048)
	const sf = 0.001
	if err := LoadDB(db, sf, 1); err != nil {
		t.Fatal(err)
	}
	cat := Catalog(sf)
	for _, name := range cat.Names() {
		ct := cat.MustTable(name)
		st, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Heap.Rows() != ct.Rows {
			t.Errorf("%s: stored %d rows, catalog says %d", name, st.Heap.Rows(), ct.Rows)
		}
		if len(st.Schema) != len(ct.Cols) {
			t.Errorf("%s: schema width mismatch", name)
		}
	}
}

func TestAllQueriesBuildAndOptimize(t *testing.T) {
	cat := Catalog(1)
	model := cost.DefaultModel()
	batches := map[string][]*algebra.Tree{
		"Q2":   Q2(1),
		"Q2D":  Q2D(),
		"Q2NI": Q2NI(1),
		"Q11":  {Q11()},
		"Q15":  {Q15()},
		"BQ5":  BatchQueries(5),
	}
	for name, qs := range batches {
		pd, err := core.BuildDAG(cat, model, qs)
		if err != nil {
			t.Fatalf("%s: BuildDAG: %v", name, err)
		}
		var costs []float64
		for _, alg := range core.Algorithms() {
			res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			if res.Cost <= 0 {
				t.Errorf("%s %v: non-positive cost %v", name, alg, res.Cost)
			}
			costs = append(costs, res.Cost)
		}
		// Volcano is index 0; every heuristic must be no worse.
		for i := 1; i < len(costs); i++ {
			if costs[i] > costs[0]*1.0001 {
				t.Errorf("%s: %v cost %.1f worse than Volcano %.1f",
					name, core.Algorithms()[i], costs[i], costs[0])
			}
		}
	}
}

func TestQ11GreedyFindsSharing(t *testing.T) {
	cat := Catalog(1)
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), []*algebra.Tree{Q11()})
	if err != nil {
		t.Fatal(err)
	}
	volcano, _ := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	greedy, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports roughly half cost for Q11 under all heuristics.
	if greedy.Cost > 0.75*volcano.Cost {
		t.Errorf("Q11: greedy %.1f not clearly better than volcano %.1f", greedy.Cost, volcano.Cost)
	}
	if len(greedy.Materialized) == 0 {
		t.Error("Q11: greedy materialized nothing")
	}
}

func TestQ2GreedyBeatsVolcano(t *testing.T) {
	cat := Catalog(1)
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), Q2(1))
	if err != nil {
		t.Fatal(err)
	}
	volcano, _ := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	greedy, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost >= volcano.Cost {
		t.Errorf("Q2: greedy %.1f did not beat volcano %.1f", greedy.Cost, volcano.Cost)
	}
}

func TestQ2NILargeImprovement(t *testing.T) {
	cat := Catalog(1)
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), Q2NI(1))
	if err != nil {
		t.Fatal(err)
	}
	volcano, _ := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	greedy, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports a ~9× improvement; require at least 5× to keep the
	// shape without pinning exact constants.
	if volcano.Cost < 5*greedy.Cost {
		t.Errorf("Q2NI: improvement only %.1fx (volcano %.1f, greedy %.1f)",
			volcano.Cost/greedy.Cost, volcano.Cost, greedy.Cost)
	}
}

func TestRenamedBatchHasNoSharing(t *testing.T) {
	cat := RenamedCatalog(1, 2)
	qs := RenamedBatch(2)
	pd, err := core.BuildDAG(cat, cost.DefaultModel(), qs)
	if err != nil {
		t.Fatal(err)
	}
	volcano, _ := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	greedy, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Materialized) != 0 {
		t.Errorf("renamed batch should have no materializations, got %d", len(greedy.Materialized))
	}
	if diff := greedy.Cost - volcano.Cost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("renamed batch: greedy %.2f != volcano %.2f", greedy.Cost, volcano.Cost)
	}
	if greedy.Stats.SharableNodes != 0 {
		t.Errorf("renamed batch reports %d sharable nodes, want 0", greedy.Stats.SharableNodes)
	}
}

// TestExecuteTPCDQueriesEndToEnd generates a small database and verifies
// that optimized plans of each algorithm compute the same results as the
// reference evaluator for the execution-experiment queries.
func TestExecuteTPCDQueriesEndToEnd(t *testing.T) {
	const sf = 0.0005
	db := storage.NewDB(2048)
	if err := LoadDB(db, sf, 7); err != nil {
		t.Fatal(err)
	}
	cat := Catalog(sf)
	model := cost.DefaultModel()

	batches := map[string][]*algebra.Tree{
		"Q11": {Q11()},
		"Q15": {Q15()},
		"Q2D": Q2D(),
		"BQ1": BatchQueries(1),
	}
	for name, qs := range batches {
		want := make([]exec.QueryResult, len(qs))
		for i, q := range qs {
			rows, schema, err := exec.Reference(db, q, nil)
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			want[i] = exec.QueryResult{Schema: schema, Rows: rows}
		}
		pd, err := core.BuildDAG(cat, model, qs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, alg := range []core.Algorithm{core.Volcano, core.Greedy} {
			res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			results, _, err := exec.Run(context.Background(), db, model, res.Plan, nil)
			if err != nil {
				t.Fatalf("%s %v run: %v\nplan:\n%s", name, alg, err, res.Plan)
			}
			for i, qr := range results {
				if !exec.EqualRows(qr, want[i], 1e-9) {
					t.Fatalf("%s %v query %d: %d rows differ from the reference's %d\nplan:\n%s",
						name, alg, i, len(qr.Rows), len(want[i].Rows), res.Plan)
				}
			}
		}
	}
}

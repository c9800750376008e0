package psp

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/exec"
	"mqo/internal/storage"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog(1)
	for i := 1; i <= NumRelations; i++ {
		tab, err := cat.Table(RelName(i))
		if err != nil {
			t.Fatal(err)
		}
		if tab.Rows < 20000 || tab.Rows > 40000 {
			t.Errorf("%s has %d rows, want 20000..40000", tab.Name, tab.Rows)
		}
		// 25 tuples per 4 KB block, as the paper specifies.
		perBlock := 4096 / tab.RowWidth()
		if perBlock != 25 {
			t.Errorf("%s: %d tuples/block, want 25", tab.Name, perBlock)
		}
		if len(tab.Indexes) != 0 {
			t.Errorf("%s: PSP relations must have no indices", tab.Name)
		}
	}
}

func TestCQStructure(t *testing.T) {
	for i := 1; i <= 5; i++ {
		qs := CQ(i)
		if len(qs) != 2*(4*i-2) {
			t.Errorf("CQ%d has %d queries, want %d", i, len(qs), 2*(4*i-2))
		}
		// Count join and selection predicates.
		joins, sels := 0, 0
		var count func(tr *algebra.Tree)
		count = func(tr *algebra.Tree) {
			switch tr.Op.(type) {
			case algebra.Join:
				joins++
			case algebra.Select:
				sels++
			}
			for _, in := range tr.Inputs {
				count(in)
			}
		}
		for _, q := range qs {
			count(q)
		}
		if joins != 32*i-16 {
			t.Errorf("CQ%d has %d join predicates, want %d", i, joins, 32*i-16)
		}
		if sels != 8*i-4 {
			t.Errorf("CQ%d has %d selections, want %d", i, sels, 8*i-4)
		}
	}
}

func TestSQPairSharesJoinsAndSubsumes(t *testing.T) {
	pair := SQ(1)
	pd, err := core.BuildDAG(Catalog(1), cost.DefaultModel(), pair[:])
	if err != nil {
		t.Fatal(err)
	}
	volcano, _ := core.Optimize(context.Background(), pd, core.Volcano, core.Options{})
	greedy, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Cost >= volcano.Cost {
		t.Errorf("greedy %.1f did not beat volcano %.1f on SQ1", greedy.Cost, volcano.Cost)
	}
	if len(greedy.Materialized) == 0 {
		t.Error("greedy materialized nothing on SQ1 pair")
	}
}

func TestCQ1AllAlgorithms(t *testing.T) {
	pd, err := core.BuildDAG(Catalog(1), cost.DefaultModel(), CQ(1))
	if err != nil {
		t.Fatal(err)
	}
	costs := map[core.Algorithm]float64{}
	for _, alg := range core.Algorithms() {
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		costs[alg] = res.Cost
	}
	for _, alg := range []core.Algorithm{core.VolcanoSH, core.VolcanoRU, core.Greedy} {
		if costs[alg] > costs[core.Volcano]*1.0001 {
			t.Errorf("%v (%.1f) worse than Volcano (%.1f)", alg, costs[alg], costs[core.Volcano])
		}
	}
	if costs[core.Greedy] >= costs[core.Volcano] {
		t.Error("greedy found no benefit on CQ1")
	}
}

func TestGreedyCountersGrowWithScale(t *testing.T) {
	var prevProps, prevRecomps int64
	for i := 1; i <= 2; i++ {
		pd, err := core.BuildDAG(Catalog(1), cost.DefaultModel(), CQ(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(context.Background(), pd, core.Greedy, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		props, recomps := res.Stats.CostPropagations, res.Stats.CostRecomputations
		if props <= prevProps || recomps <= prevRecomps {
			t.Errorf("CQ%d: counters did not grow: props %d->%d recomps %d->%d",
				i, prevProps, props, prevRecomps, recomps)
		}
		prevProps, prevRecomps = props, recomps
	}
}

func TestExecutePSPEndToEnd(t *testing.T) {
	db := storage.NewDB(2048)
	if err := LoadDB(db, 0.01, 3); err != nil {
		t.Fatal(err)
	}
	cat := Catalog(0.01)
	model := cost.DefaultModel()
	qs := CQ(1)
	want := make([]exec.QueryResult, len(qs))
	for i, q := range qs {
		rows, schema, err := exec.Reference(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = exec.QueryResult{Schema: schema, Rows: rows}
	}
	pd, err := core.BuildDAG(cat, model, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.Volcano, core.Greedy} {
		res, err := core.Optimize(context.Background(), pd, alg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := exec.Run(context.Background(), db, model, res.Plan, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i, qr := range results {
			if !exec.EqualRows(qr, want[i], 1e-9) {
				t.Fatalf("%v query %d: %d rows differ from the reference's %d", alg, i, len(qr.Rows), len(want[i].Rows))
			}
		}
	}
}

package core

import (
	"context"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// TestFigure10Counters pins the work counters of Figure 10 on a freshly
// built DAG: Greedy's benefit recomputations, nodes popped by the
// incremental cost update (Figure 5) and the updates run, and Volcano-RU's
// promotions and pops on BQ5. Plans and costs are pinned by the golden
// snapshots; these pin how much of the DAG the update visits to get them,
// so a rewrite of the update that pops a different node set fails here.
func TestFigure10Counters(t *testing.T) {
	tc, pc := tpcd.Catalog(1), psp.Catalog(1)
	for _, tt := range []struct {
		name                      string
		cat                       *catalog.Catalog
		queries                   []*algebra.Tree
		benefit, props, recomputs int64
	}{
		{"CQ1", pc, psp.CQ(1), 85, 1702, 86},
		{"CQ2", pc, psp.CQ(2), 210, 5675, 212},
		{"CQ3", pc, psp.CQ(3), 338, 9653, 341},
		{"CQ4", pc, psp.CQ(4), 485, 14554, 491},
		{"CQ5", pc, psp.CQ(5), 613, 18419, 622},
		{"BQ5", tc, tpcd.BatchQueries(5), 216, 7460, 219},
		{"BQ5x6", tpcd.TenantCatalog(1, 6), tpcd.TenantBatch(5, 6), 1357, 50247, 1375},
	} {
		t.Run(tt.name, func(t *testing.T) {
			pd, err := BuildDAG(tt.cat, cost.DefaultModel(), tt.queries)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(context.Background(), pd, Greedy, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.BenefitRecomputations != tt.benefit || st.CostPropagations != tt.props || st.CostRecomputations != tt.recomputs {
				t.Errorf("greedy counted %d benefit recomputations, %d propagations, %d cost recomputations; want %d, %d, %d",
					st.BenefitRecomputations, st.CostPropagations, st.CostRecomputations, tt.benefit, tt.props, tt.recomputs)
			}
		})
	}
	t.Run("BQ5 Volcano-RU", func(t *testing.T) {
		pd, err := BuildDAG(tc, cost.DefaultModel(), tpcd.BatchQueries(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(context.Background(), pd, VolcanoRU, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.RUPromotions != 61 || st.CostPropagations != 2134 {
			t.Errorf("Volcano-RU counted %d promotions and %d propagations, want 61 and 2134",
				st.RUPromotions, st.CostPropagations)
		}
	})
}

package core

import (
	"testing"
)

// TestRUBatchedPromotions: Volcano-RU's per-plan promotion rule must
// actually promote on a sharing workload and keep RU at or below the
// no-sharing baseline. Byte-equality of the resulting plans is enforced
// separately by the golden snapshots.
func TestRUBatchedPromotions(t *testing.T) {
	// Three queries sharing σ(R)⋈S make the second and third plan walks
	// promote the shared subexpression.
	pd := mustBuild(t,
		chain([]string{"R", "S", "T"}, 990),
		chain([]string{"R", "S", "P"}, 990),
		chain([]string{"R", "S", "U"}, 990),
	)
	res := mustOptimize(t, pd, VolcanoRU)
	if res.Stats.RUPromotions == 0 {
		t.Fatal("no reuse promotions on a sharing workload")
	}
	vol := mustOptimize(t, pd, Volcano)
	if res.Cost > vol.Cost {
		t.Errorf("RU cost %.2f exceeds Volcano %.2f", res.Cost, vol.Cost)
	}
}

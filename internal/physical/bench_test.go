package physical

import (
	"testing"

	"mqo/internal/cost"
	"mqo/internal/tpcd"
)

// BenchmarkBuild times the physical DAG's construction (nodes, enforcers,
// topological order, initial costing) over an already expanded logical DAG:
// the step after dag.Expand in what a batch pays before any search runs.
func BenchmarkBuild(b *testing.B) {
	b.Run("BQ5x6", func(b *testing.B) {
		ld := expandLogical(b, tpcd.TenantCatalog(1, 6), tpcd.TenantBatch(5, 6))
		model := cost.DefaultModel()
		b.ReportAllocs()
		for b.Loop() {
			pd, err := Build(ld, model)
			if err != nil {
				b.Fatal(err)
			}
			if len(pd.Nodes) == 0 {
				b.Fatal("no physical nodes")
			}
		}
	})
}

package physical

import (
	"testing"

	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/tpcd"
)

// BenchmarkBuild times the physical DAG's construction (nodes, enforcers,
// topological order, initial costing) over an already expanded logical DAG:
// the step after dag.Expand in what a batch pays before any search runs.
func BenchmarkBuild(b *testing.B) {
	b.Run("BQ5x6", func(b *testing.B) {
		ld := dag.New(cost.Estimator{Cat: tpcd.TenantCatalog(1, 6)})
		for _, q := range tpcd.TenantBatch(5, 6) {
			if _, err := ld.AddQuery(q); err != nil {
				b.Fatal(err)
			}
		}
		for _, step := range []func() error{ld.Expand, ld.Subsume, ld.Expand} {
			if err := step(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := ld.Finalize(); err != nil {
			b.Fatal(err)
		}
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

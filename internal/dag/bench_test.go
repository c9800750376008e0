package dag

import "testing"

// BenchmarkExpand times building one batch's expanded DAG — insert, expand,
// subsume, expand, finalize, the steps core.BuildDAG takes — which is what
// a service pays on every window that misses the plan cache.
func BenchmarkExpand(b *testing.B) {
	want := map[string]bool{"BQ5": true, "CQ5": true, "BQ5x6": true, "SSBAll": true}
	for _, batch := range identityBatches(b) {
		if !want[batch.name] {
			continue
		}
		b.Run(batch.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				batch.build(b)
			}
		})
	}
}

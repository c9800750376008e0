package physical

import (
	"testing"

	"mqo/internal/tpcd"
)

// BenchmarkPropagate times one full greedy what-if wave — every candidate
// with a cost to save, rolled back on the DAG — over the BQ5 batch and its
// six-tenant copy, and reports the time per node the incremental cost
// update (Figure 5) popped: the update's unit of work.
func BenchmarkPropagate(b *testing.B) {
	for _, tc := range []struct {
		name    string
		tenants int
	}{{"BQ5", 1}, {"BQ5x6", 6}} {
		b.Run(tc.name, func(b *testing.B) {
			pd := buildOver(b, tpcd.TenantCatalog(1, tc.tenants), tpcd.TenantBatch(5, tc.tenants))
			var cands []*Node
			for _, n := range whatIfCandidates(pd) {
				if pd.CostOf(n) > 0 {
					cands = append(cands, n)
				}
			}
			pd.ResetCounters()
			for b.Loop() {
				for _, n := range cands {
					pd.WhatIfBenefit(n)
				}
			}
			popped, _ := pd.Counters()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(popped), "ns/node")
		})
	}
}

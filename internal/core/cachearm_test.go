package core

import (
	"testing"

	"mqo/internal/cost"
	"mqo/internal/physical"
)

// TestArmCacheScanPricedByAllAlgorithms: arming a cached result on the
// batch DAG (the result cache's pre-pass) must make every algorithm —
// Volcano, Volcano-SH, Volcano-RU and Greedy — price the hit natively:
// the optimized cost drops below the unarmed cost, and the extracted plan
// actually reads the spooled table through a CacheScan leaf.
func TestArmCacheScanPricedByAllAlgorithms(t *testing.T) {
	q := chain([]string{"R", "S", "T"}, 990)

	baseline := map[Algorithm]cost.Cost{}
	base := mustBuild(t, q)
	for _, alg := range Algorithms() {
		baseline[alg] = mustOptimize(t, base, alg).Cost
	}

	armed := mustBuild(t, q)
	hit := armed.QueryRoots[0]
	const table = "rc_test"
	armed.ArmCacheScan(hit, table, 0.5, cost.TierRAM) // nearly free read-back

	for _, alg := range Algorithms() {
		res := mustOptimize(t, armed, alg)
		if res.Cost >= baseline[alg] {
			t.Errorf("%v: armed cost %.2f not below baseline %.2f", alg, res.Cost, baseline[alg])
		}
		found := false
		res.Plan.Root.Walk(func(pn *physical.PlanNode) {
			if pn.E.Kind == physical.CacheScanOp && pn.E.Arm.CacheName == table {
				found = true
			}
		})
		if !found {
			t.Errorf("%v: extracted plan does not read the armed cache table\n%s", alg, res.Plan)
		}
	}
}

// TestArmCacheScanNeverRematerialized: a node served by a CacheScan must
// not be picked for materialization again (copying a cached result into a
// temp can never pay for its write), so greedy's materialized set stays
// free of cache-backed nodes.
func TestArmCacheScanNeverRematerialized(t *testing.T) {
	q1 := chain([]string{"R", "S", "T"}, 990)
	q2 := chain([]string{"R", "S", "P"}, 990)
	pd := mustBuild(t, q1, q2)

	// Arm every node of the shared σ(R)⋈S group's physical nodes that a
	// stored Any-prop result can serve.
	shared := mustOptimize(t, pd, Greedy)
	if len(shared.Materialized) == 0 {
		t.Skip("no shared materialization on this workload")
	}
	// Arm at the stored result's read-back cost (what the manager does:
	// the scan cost of the real spooled bytes, ≈ ReuseSeq). Cheaper arm
	// costs could legitimately make a temp copy worth writing.
	m := shared.Materialized[0]
	armed := map[*physical.Node]bool{}
	for _, n := range pd.NodesOf(m.LG) {
		if m.Prop.Satisfies(n.Prop) && n.ReuseSeq > 0 {
			pd.ArmCacheScan(n, "rc_shared", n.ReuseSeq, cost.TierRAM)
			armed[n] = true
		}
	}
	if len(armed) == 0 {
		t.Skip("no armable node (index-property materialization)")
	}
	res := mustOptimize(t, pd, Greedy)
	for _, mm := range res.Materialized {
		if armed[mm] {
			t.Errorf("cache-backed node %d re-materialized", mm.ID)
		}
	}
}

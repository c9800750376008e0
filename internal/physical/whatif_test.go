package physical

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/tpcd"
)

// whatIfCandidates returns the nodes a greedy loop could toggle: everything
// but the root and parameter-dependent groups.
func whatIfCandidates(pd *DAG) []*Node {
	var out []*Node
	for _, n := range pd.Nodes {
		if n == pd.Root || n.LG.ParamDep {
			continue
		}
		out = append(out, n)
	}
	return out
}

// costingSnapshot is a copy of a DAG's costing state: everything Rollback
// restores, costs by their bits.
type costingSnapshot struct {
	cost    []uint64
	mat     []uint64
	setAt   []uint32
	matList []*Node
	sets    uint32
	dirty   bool
}

func snapshotCosting(pd *DAG) costingSnapshot {
	cs := &pd.costing
	s := costingSnapshot{mat: slices.Clone(cs.mat), setAt: slices.Clone(cs.setAt),
		matList: slices.Clone(cs.matList), sets: cs.sets, dirty: cs.dirty}
	for _, c := range cs.cost {
		s.cost = append(s.cost, math.Float64bits(float64(c)))
	}
	return s
}

// sameCosting reports how pd's costing state differs from want, "" when it
// is the same to the bit.
func sameCosting(pd *DAG, want costingSnapshot) string {
	got := snapshotCosting(pd)
	switch {
	case !slices.Equal(got.cost, want.cost):
		return "node costs"
	case !slices.Equal(got.mat, want.mat):
		return "bitmask words"
	case !slices.Equal(got.setAt, want.setAt):
		return "setAt"
	case !slices.Equal(got.matList, want.matList):
		return "matList"
	case got.sets != want.sets || got.dirty != want.dirty:
		return fmt.Sprintf("sets %d dirty %v, want %d %v", got.sets, got.dirty, want.sets, want.dirty)
	}
	return ""
}

// TestWhatIfMatchesDAGToggle: for every candidate node, the what-if
// benefit must equal the benefit obtained by toggling the DAG and back, and
// the what-if must leave the DAG's costing state bit for bit as it was.
func TestWhatIfMatchesDAGToggle(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50))
	base := pd.TotalCost()
	for _, n := range whatIfCandidates(pd) {
		before := snapshotCosting(pd)
		got := pd.WhatIfBenefit(n)
		if diff := sameCosting(pd, before); diff != "" {
			t.Fatalf("node %d: the what-if left the %s changed", n.ID, diff)
		}

		pd.SetMaterialized(n, true)
		want := base - pd.TotalCost()
		pd.SetMaterialized(n, false)

		// The what-if computes the benefit in delta form (per-changed-node
		// differences) for bit-stability across independent commits; it
		// agrees with the two-totals subtraction to float rounding.
		if !cost.Eq(got, want) {
			t.Fatalf("node %d: what-if benefit %v != DAG toggle benefit %v", n.ID, got, want)
		}
	}
}

// TestSpanTogglesMatchScratch: a random sequence of toggles kept
// inside one Mark span must agree with from-scratch recosting of the same set
// on a twin DAG — the §4.2 incremental-update property inside a span — and
// Rollback must undo all of it.
func TestSpanTogglesMatchScratch(t *testing.T) {
	qs := []*algebra.Tree{chain([]string{"A", "B", "C"}, 50), chain([]string{"B", "C", "D"}, 60)}
	pd, twin := buildDAG(t, qs...), buildDAG(t, qs...)
	cands := whatIfCandidates(pd)
	rng := rand.New(rand.NewSource(11))
	before := snapshotCosting(pd)
	pd.Mark()
	set := map[int]bool{}
	for trial := 0; trial < 80; trial++ {
		n := cands[rng.Intn(len(cands))]
		on := !pd.Materialized(n)
		pd.SetMaterialized(n, on)
		if on {
			set[n.Topo] = true
		} else {
			delete(set, n.Topo)
		}
		var list []*Node
		for topo := range set {
			list = append(list, twin.Nodes[topo])
		}
		if scratch := twin.BestCostWith(list); !cost.Eq(pd.TotalCost(), scratch) {
			t.Fatalf("trial %d: span total %v != scratch %v (set size %d)", trial, pd.TotalCost(), scratch, len(list))
		}
	}
	pd.Rollback()
	if diff := sameCosting(pd, before); diff != "" {
		t.Fatalf("Rollback left the %s changed", diff)
	}
}

// TestSpanOverBaseMaterializations: a span may take a committed member
// off and put it back (so its setAt, and the order of its group's members,
// moves), and Rollback must restore costs, bitmask words, matList, setAt,
// sets and dirty exactly.
func TestSpanOverBaseMaterializations(t *testing.T) {
	qs := []*algebra.Tree{chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50)}
	pd, twin := buildDAG(t, qs...), buildDAG(t, qs...)
	cands := whatIfCandidates(pd)
	m, other := cands[len(cands)/2], cands[len(cands)/3]
	pd.SetMaterialized(m, true)
	pd.SetMaterialized(other, true)
	base := pd.TotalCost()
	before := snapshotCosting(pd)

	pd.Mark()
	pd.SetMaterialized(m, false)
	if pd.Materialized(m) {
		t.Fatal("the span still sees the removed member")
	}
	if want := twin.BestCostWith([]*Node{twin.Nodes[other.Topo]}); !cost.Eq(pd.TotalCost(), want) {
		t.Fatalf("span total after removal %v != the remaining set's cost %v", pd.TotalCost(), want)
	}
	pd.SetMaterialized(m, true)
	if pd.costing.setAt[m.Topo] == before.setAt[m.Topo] {
		t.Fatal("re-adding the member did not move its setAt: the test checks nothing")
	}
	if !cost.Eq(pd.TotalCost(), base) {
		t.Fatalf("round-trip span total %v != base %v", pd.TotalCost(), base)
	}
	pd.Rollback()
	if diff := sameCosting(pd, before); diff != "" {
		t.Fatalf("Rollback left the %s changed", diff)
	}
	if pd.TotalCost() != base {
		t.Fatalf("total after Rollback %v != base %v", pd.TotalCost(), base)
	}
}

// TestWhatIfsConcurrent: what-ifs write only their own DAG. Two physical
// DAGs built over one logical DAG compute benefits at once, race-free under
// -race, and each computes the benefits a DAG computes alone.
func TestWhatIfsConcurrent(t *testing.T) {
	ld := expandLogical(t, testCatalog(), []*algebra.Tree{chain([]string{"A", "B", "C"}, 50), chain([]string{"A", "B", "D"}, 50)})
	var dags [3]*DAG
	for i := range dags {
		pd, err := Build(ld, cost.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		dags[i] = pd
	}
	ref := dags[2]
	cands := whatIfCandidates(ref)
	want := make([]cost.Cost, len(cands))
	for i, n := range cands {
		want[i] = ref.WhatIfBenefit(n)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for _, pd := range dags[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range cands {
				if got := pd.WhatIfBenefit(pd.Nodes[n.Topo]); got != want[i] {
					errs <- fmt.Sprintf("node %d: benefit %v, alone %v", n.ID, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestWhatIfCountsSurviveRollback: what-ifs count their work into the DAG's
// counters, and Rollback does not take it back.
func TestWhatIfCountsSurviveRollback(t *testing.T) {
	pd := buildDAG(t, chain([]string{"A", "B"}, 50))
	n := whatIfCandidates(pd)[0]
	pd.WhatIfBenefit(n)
	p, r := pd.Counters()
	if p == 0 || r != 1 {
		t.Fatalf("a what-if counted propagations %d, recomputations %d", p, r)
	}
	pd.Mark()
	pd.SetMaterialized(n, true)
	pd.Rollback()
	if p2, r2 := pd.Counters(); p2 != 2*p || r2 != 2 {
		t.Fatalf("after a span and its Rollback: %d, %d; want %d, 2", p2, r2, 2*p)
	}
}

// TestResetRestoresBuild: whatever a search materialized, Reset returns the
// DAG to what Build made — nothing materialized, no group with a reusable
// member, every node's cost bit-equal to a fresh build's, zero counters. A
// DAG already in that state is left alone, without a costing pass.
func TestResetRestoresBuild(t *testing.T) {
	ld := expandLogical(t, tpcd.Catalog(1), tpcd.BatchQueries(5))
	pd, err := Build(ld, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(ld, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	asBuilt := func(what string) {
		t.Helper()
		for i, n := range pd.Nodes {
			if pd.CostOf(n) != fresh.CostOf(fresh.Nodes[i]) || pd.Materialized(n) {
				t.Fatalf("%s: node %d costs %v (materialized %v), a fresh build's %v",
					what, n.ID, pd.CostOf(n), pd.Materialized(n), fresh.CostOf(fresh.Nodes[i]))
			}
		}
		for k, w := range pd.costing.mat {
			if w != 0 {
				t.Fatalf("%s: bitmask word %d still holds materialized nodes %b", what, k, w)
			}
		}
		if p, r := pd.Counters(); len(pd.MaterializedSet()) > 0 || p != 0 || r != 0 {
			t.Fatalf("%s: %d materialized, counters %d/%d", what, len(pd.MaterializedSet()), p, r)
		}
		if j := &pd.costing.journal; j.marked || len(j.costs) > 0 || len(j.toggles) > 0 {
			t.Fatalf("%s: the journal holds %d costs and %d toggles", what, len(j.costs), len(j.toggles))
		}
	}
	cands := whatIfCandidates(pd)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		if round == 3 {
			pd.Mark() // a span left open: Reset ends it
		}
		for i := 0; i < 12; i++ {
			n := cands[rng.Intn(len(cands))]
			if round%2 == 0 {
				pd.SetMaterialized(n, !pd.Materialized(n))
			} else {
				pd.SetMaterializedRaw(n, !pd.Materialized(n))
			}
		}
		pd.Reset()
		asBuilt("after toggles")
	}
	pd.costing.cost[pd.Root.Topo]++ // a pass would put it back
	pd.Reset()
	if pd.CostOf(pd.Root) == fresh.CostOf(fresh.Root) {
		t.Error("Reset of a DAG in its built state ran a costing pass")
	}

	// Armed: what the result cache arms comes off again with Disarm. The BQ5
	// DAG gets CacheScans; a nested query's also an InvokePartial.
	nested, err := Build(expandLogical(t, testCatalog(), nestedTrees()), cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DAG{pd, nested} {
		disarmRestoresBuild(t, d)
	}
	asBuilt("after arming and Disarm")
}

// disarmRestoresBuild holds pd, which nothing armed, to fresh builds over its
// logical DAG. Arming one set of nodes, Disarm and arming as many others
// without a Reset between must cost the DAG as a fresh build armed the second
// way: the layout must not be taken for current because the count of
// operation nodes is back where it was. Arming, Disarm and Reset must leave
// the flat arrays, every operation node's id and every node's cost
// bit-identical to a fresh build's.
func disarmRestoresBuild(t *testing.T, pd *DAG) {
	t.Helper()
	build := func() *DAG {
		d, err := Build(pd.L, pd.Model)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var first, second []int // topological numbers; an Invoke's node is second's
	for _, n := range pd.Nodes {
		switch {
		case n.Exprs[0].Kind == InvokeOp:
			second = append(second, n.Topo)
		case n == pd.Root || n.LG.ParamDep || n.Prop.HasIx || n.Topo%3 != 0:
		case len(first) <= len(second):
			first = append(first, n.Topo)
		default:
			second = append(second, n.Topo)
		}
	}
	first = first[:min(len(first), len(second))]
	if len(first) == 0 {
		t.Fatal("no nodes to arm")
	}
	// Priced off the node alone: the DAG's costs when the second set is
	// armed are still the first set's.
	arm := func(d *DAG, topos []int) {
		for _, topo := range topos {
			n := d.Nodes[topo]
			read := d.Model.TierScanCost(cost.TierWarm, n.Blocks(d.Model)) / 4
			if e := n.Exprs[0]; e.Kind == InvokeOp {
				d.ArmInvokePartial(n, e.LE, e.Children[0], e.Weight()/4, read,
					[]BindScan{{Bind: "x=1", Table: "b1"}}, []string{"x=2"}, "fp")
			} else {
				d.ArmCacheScan(n, "c", read, cost.TierWarm)
			}
		}
	}
	sameCosts := func(what string, d *DAG) {
		t.Helper()
		for i, n := range pd.Nodes {
			if got, want := pd.CostOf(n), d.CostOf(d.Nodes[i]); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: node %d costs %v, a fresh build's %v", what, n.ID, got, want)
			}
		}
	}

	arm(pd, first)
	pd.Recost()
	pd.Disarm()
	arm(pd, second)
	pd.Reset()
	want := build()
	arm(want, second)
	want.Recost()
	sameCosts("armed, disarmed and armed again", want)
	if pd.numExprs != want.numExprs || pd.numExprs == pd.built {
		t.Fatalf("%d operation nodes, a fresh build armed alike %d (%d built)", pd.numExprs, want.numExprs, pd.built)
	}

	pd.Disarm()
	pd.Reset()
	want = build()
	sameCosts("disarmed and reset", want)
	if !reflect.DeepEqual(pd.flat, want.flat) {
		t.Fatal("disarmed and reset: the flat layout differs from a fresh build's")
	}
	for i, n := range pd.Nodes {
		m := want.Nodes[i]
		if len(n.Exprs) != len(m.Exprs) {
			t.Fatalf("disarmed: node %d has %d operation nodes, a fresh build's %d", n.ID, len(n.Exprs), len(m.Exprs))
		}
		for j, e := range n.Exprs {
			if e.id != m.Exprs[j].id || e.Kind != m.Exprs[j].Kind || e.Arm != nil {
				t.Fatalf("disarmed: node %d's operation node %d is %v #%d, a fresh build's %v #%d",
					n.ID, j, e.Kind, e.id, m.Exprs[j].Kind, m.Exprs[j].id)
			}
		}
	}
}

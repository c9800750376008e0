package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
)

// expandRefiring is Expand as it was before the rule driver went semi-naive,
// kept as the model the driver is held to: every visit of an expression
// forgets what it has seen, so its rules range over all alternatives of its
// input group again.
func (d *DAG) expandRefiring() error {
	for len(d.worklist) > 0 {
		e := d.worklist[len(d.worklist)-1]
		d.worklist = d.worklist[:len(d.worklist)-1]
		if e.dropped {
			continue
		}
		e.seen = 0
		if err := d.applyRules(e); err != nil {
			return err
		}
	}
	return nil
}

// buildRefiring is build with the model driver.
func (b identityBatch) buildRefiring(tb testing.TB) *DAG {
	tb.Helper()
	return b.buildWith(tb, (*DAG).expandRefiring)
}

// sameRel compares two profiles by everything a reader can get out of them:
// rows, width and the statistics of every column of the result.
func sameRel(a, b cost.Rel, schema algebra.Schema) bool {
	if a.Rows != b.Rows || a.Width != b.Width {
		return false
	}
	for _, ci := range schema {
		sa, oka := a.ColStat(ci.Col)
		sb, okb := b.ColStat(ci.Col)
		if oka != okb || !reflect.DeepEqual(sa, sb) {
			return false
		}
	}
	return true
}

// checkSameDAG asserts that got is want group for group, dead ones included:
// ID, forwarding, the expressions in order with their keys, and every
// property the physical layer reads.
func checkSameDAG(t *testing.T, name string, got, want *DAG) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups created, model created %d", name, len(got.Groups), len(want.Groups))
	}
	if got.Root.ID != want.Root.ID {
		t.Errorf("%s: root is group %d, model's %d", name, got.Root.ID, want.Root.ID)
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.ID != w.ID || g.Find().ID != w.Find().ID {
			t.Fatalf("%s: group %d→%d, model has %d→%d", name, g.ID, g.Find().ID, w.ID, w.Find().ID)
		}
		if g.forward != nil {
			continue
		}
		if !reflect.DeepEqual(g.Schema, w.Schema) {
			t.Errorf("%s: group %d: schema %v, model %v", name, g.ID, g.Schema, w.Schema)
		}
		if !sameRel(g.Rel, w.Rel, g.Schema) {
			t.Errorf("%s: group %d: profile %+v, model %+v", name, g.ID, g.Rel, w.Rel)
		}
		if g.ParamDep != w.ParamDep || g.SubsumpNode != w.SubsumpNode {
			t.Errorf("%s: group %d: ParamDep %v SubsumpNode %v, model %v %v", name, g.ID, g.ParamDep, g.SubsumpNode, w.ParamDep, w.SubsumpNode)
		}
		if len(g.Exprs) != len(w.Exprs) {
			t.Fatalf("%s: group %d: %d expressions, model %d", name, g.ID, len(g.Exprs), len(w.Exprs))
		}
		for j, e := range g.Exprs {
			we := w.Exprs[j]
			if e.key != we.key || rendering(e) != rendering(we) || e.Subsumption != we.Subsumption {
				t.Errorf("%s: group %d expression %d: %s %+v subsumption %v, model %s %+v %v",
					name, g.ID, j, rendering(e), e.key, e.Subsumption, rendering(we), we.key, we.Subsumption)
			}
		}
		if len(g.parents) != len(w.parents) {
			t.Fatalf("%s: group %d: %d parents, model %d", name, g.ID, len(g.parents), len(w.parents))
		}
		for j, p := range g.parents {
			if p.key != w.parents[j].key {
				t.Errorf("%s: group %d parent %d: %s, model %s", name, g.ID, j, rendering(p), rendering(w.parents[j]))
			}
		}
	}
}

// TestExpandMatchesRefiringModel holds the semi-naive driver to the one it
// replaced on every batch: the same DAG, group for group, from fewer
// derivations. The totals are one algorithm sweep of the benchmark's
// opt_scaleup.
func TestExpandMatchesRefiringModel(t *testing.T) {
	type totals struct{ derivations, exprs, groups, liveExprs, liveGroups int }
	var got, model totals
	add := func(s *totals, d *DAG) {
		s.derivations += d.Derivations
		s.exprs += d.Derivations - d.Duplicates
		s.groups += len(d.Groups)
		s.liveExprs += d.NumExprs()
		s.liveGroups += len(d.LiveGroups())
	}
	for i, b := range identityBatches(t) {
		d, m := b.build(t), b.buildRefiring(t)
		checkSameDAG(t, b.name, d, m)
		if d.Derivations > m.Derivations {
			t.Errorf("%s: %d derivations, more than the model's %d", b.name, d.Derivations, m.Derivations)
		}
		if i < 11 {
			add(&got, d)
			add(&model, m)
		}
	}
	if want := (totals{94391, 23428, 7165, 8246, 2000}); model != want {
		t.Errorf("model over the opt_scaleup batches: %+v, want %+v", model, want)
	}
	if got.derivations > 53191 {
		t.Errorf("%d derivations over the opt_scaleup batches, want at most 53191 (the model makes %d)", got.derivations, model.derivations)
	}
	model.derivations = got.derivations
	if got != model {
		t.Errorf("created and live over the opt_scaleup batches: %+v, model %+v", got, model)
	}
}

// randomBatch makes a batch of queries over contiguous stretches of the chain
// A.fk = B.id, B.fk = C.id, ...: joins split anywhere, selections — on one
// column, across a join, with a parameter — at any level and stacked,
// sometimes an aggregate on top, with constants drawn from a small pool so
// that queries overlap and their groups unify late as well as early. Stacked
// selections may repeat a conjunct (TestRepeatedConjunctTerminates).
func randomBatch(rng *rand.Rand) []*algebra.Tree {
	tables := []string{"A", "B", "C", "D", "E"}
	randomSelect := func(in *algebra.Tree, over []string) *algebra.Tree {
		c := algebra.Col(over[rng.Intn(len(over))], "num")
		p := algebra.Cmp(c, []algebra.CmpOp{algebra.GE, algebra.EQ}[rng.Intn(2)], algebra.IntVal(int64(10*(1+rng.Intn(3)))))
		switch last := algebra.Col(over[len(over)-1], "id"); {
		case rng.Intn(6) == 0:
			p = p.And(algebra.ColCmp(c, algebra.LE, last))
		case rng.Intn(6) == 0:
			p = algebra.CmpParam(c, algebra.EQ, "p")
		}
		return algebra.SelectT(p, in)
	}
	var gen func(over []string) *algebra.Tree
	gen = func(over []string) *algebra.Tree {
		var t *algebra.Tree
		if len(over) == 1 {
			t = algebra.ScanT(over[0])
		} else {
			m := 1 + rng.Intn(len(over)-1)
			t = algebra.JoinT(algebra.ColEq(algebra.Col(over[m-1], "fk"), algebra.Col(over[m], "id")), gen(over[:m]), gen(over[m:]))
		}
		for rng.Intn(3) == 0 {
			t = randomSelect(t, over)
		}
		return t
	}
	var batch []*algebra.Tree
	for n := 2 + rng.Intn(3); n > 0; n-- {
		lo := rng.Intn(len(tables) - 1)
		over := tables[lo : lo+2+rng.Intn(len(tables)-lo-1)]
		t := gen(over)
		if rng.Intn(3) == 0 {
			by := algebra.Col(over[rng.Intn(len(over))], []string{"id", "fk"}[rng.Intn(2)])
			t = algebra.AggT([]algebra.Column{by},
				[]algebra.AggExpr{{Func: algebra.Sum, Arg: algebra.ColOf(over[0], "num"), As: algebra.Col("q", "s")}}, t)
		}
		batch = append(batch, t)
	}
	return batch
}

// TestExpandMatchesRefiringModelRandom is the comparison over batches nobody
// picked. Batch 60 of seed 23 is one where an expression unification moved
// has to count as new to its new group's parents: without the stamp unify
// gives it the driver ends six groups short of the model. Batch 164 of seed 5
// is one where a select whose conjuncts its join input already applies must
// be found equal to that join (ruleSelectPushdown): otherwise the two groups
// derive each other, a cycle.
func TestExpandMatchesRefiringModelRandom(t *testing.T) {
	var saved int
	for _, seed := range []int64{23, 79, 5} {
		rng := rand.New(rand.NewSource(seed))
		for i := range 300 {
			b := identityBatch{name: fmt.Sprintf("random %d/%d", seed, i), cat: testCatalog(), queries: randomBatch(rng)}
			d, m := b.build(t), b.buildRefiring(t)
			checkSameDAG(t, b.name, d, m)
			checkIdentities(t, d)
			checkAcyclic(t, b.name, d)
			saved += m.Derivations - d.Derivations
		}
	}
	if saved <= 0 {
		t.Errorf("the model made %d derivations more over all batches: the driver never skipped a pair", saved)
	}
}

// TestFinalizeFillsSchemas checks the schemas expansion leaves to Finalize
// against their definition: a group's schema is the merge of the inputs'
// schemas for every join in it, the input's schema for every select and
// invoke, and covers exactly the columns the rules worked with.
func TestFinalizeFillsSchemas(t *testing.T) {
	for _, b := range identityBatches(t) {
		d := b.build(t)
		for _, g := range d.LiveGroups() {
			if g.Schema == nil && g != d.Root {
				t.Errorf("%s: group %d has no schema after Finalize", b.name, g.ID)
				continue
			}
			if cols := d.in.schemaCols(g.Schema); !cols.within(g.cols, nil) || !g.cols.within(cols, nil) {
				t.Errorf("%s: group %d: schema %v is not the group's column set", b.name, g.ID, g.Schema)
			}
			for _, e := range g.Exprs {
				var want algebra.Schema
				switch e.key.kind {
				case kindJoin:
					want = mergeSchemas(e.Children[0].Find().Schema, e.Children[1].Find().Schema)
				case kindSelect, kindInvoke:
					want = e.Children[0].Find().Schema
				default:
					continue
				}
				if !reflect.DeepEqual(g.Schema, want) {
					t.Errorf("%s: group %d: schema %v, but %s gives %v", b.name, g.ID, g.Schema, rendering(e), want)
				}
			}
		}
	}
}

// TestSubsumptionLeavesQueryGroupsReal has a batch ask for the very results
// subsumption would introduce: the disjunction of two equality selections and
// the group-by union of two aggregates. Both derivations land on the query's
// own group, which must not be labelled a subsumption-only node.
func TestSubsumptionLeavesQueryGroupsReal(t *testing.T) {
	d := newTestDAG()
	num, id, fk := algebra.Col("A", "num"), algebra.Col("A", "id"), algebra.Col("A", "fk")
	sum := []algebra.AggExpr{{Func: algebra.Sum, Arg: algebra.ColOf("A", "num"), As: algebra.Col("q", "s")}}
	var roots []*Group
	for _, q := range []*algebra.Tree{
		algebra.SelectT(algebra.Cmp(num, algebra.EQ, algebra.IntVal(5)), algebra.ScanT("A")),
		algebra.SelectT(algebra.Cmp(num, algebra.EQ, algebra.IntVal(10)), algebra.ScanT("A")),
		algebra.SelectT(algebra.OrValues(num, algebra.EQ, []algebra.Value{algebra.IntVal(5), algebra.IntVal(10)}), algebra.ScanT("A")),
		algebra.AggT([]algebra.Column{id}, sum, algebra.ScanT("A")),
		algebra.AggT([]algebra.Column{fk}, sum, algebra.ScanT("A")),
		algebra.AggT(unionColumns([]algebra.Column{id}, []algebra.Column{fk}), sum, algebra.ScanT("A")),
	} {
		r, err := d.AddQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, r)
	}
	created := len(d.Groups)
	expand(t, d)
	if n := len(d.Groups) - 1; n != created { // Finalize adds the pseudo-root's
		t.Fatalf("subsumption created %d groups, want none: the batch asks for both results itself", n-created)
	}
	for _, c := range []struct {
		name        string
		whole       *Group
		derivedFrom []*Group
	}{
		{"disjunction", roots[2].Find(), roots[0:2]},
		{"group-by union", roots[5].Find(), roots[3:5]},
	} {
		if c.whole.SubsumpNode {
			t.Errorf("the query's own %s group is labelled SubsumpNode", c.name)
		}
		for i, r := range c.derivedFrom {
			ok := false
			for _, e := range r.Find().Exprs {
				ok = ok || e.Subsumption && e.Children[0].Find() == c.whole
			}
			if !ok {
				t.Errorf("%s: part %d has no derivation from the query's group", c.name, i+1)
			}
		}
	}
	for _, g := range d.LiveGroups() {
		if g.SubsumpNode {
			t.Errorf("group %d is labelled SubsumpNode", g.ID)
		}
	}
}

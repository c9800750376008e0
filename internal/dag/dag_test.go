package dag

import (
	"fmt"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
)

// testCatalog builds relations A, B, C, D with join-compatible columns:
// each relation r has columns r.id and r.fk, plus r.num for selections.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		cat.Add(&catalog.Table{
			Name: n,
			Cols: []catalog.ColDef{
				catalog.IntCol("id", 1000),
				catalog.IntCol("fk", 1000),
				catalog.IntColRange("num", 100, 1, 100),
			},
			Rows: 1000,
		})
	}
	return cat
}

func newTestDAG() *DAG {
	return New(cost.Estimator{Cat: testCatalog()})
}

// chain builds the query σnum≥k(A) ⋈ B ⋈ C ... joined on fk = id.
func chainQuery(tables []string, selConst int64) *algebra.Tree {
	t := algebra.SelectT(algebra.Cmp(algebra.Col(tables[0], "num"), algebra.GE, algebra.IntVal(selConst)),
		algebra.ScanT(tables[0]))
	for i := 1; i < len(tables); i++ {
		pred := algebra.ColEq(algebra.Col(tables[i-1], "fk"), algebra.Col(tables[i], "id"))
		t = algebra.JoinT(pred, t, algebra.ScanT(tables[i]))
	}
	return t
}

func expand(t *testing.T, d *DAG) {
	t.Helper()
	if err := d.Expand(); err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if err := d.Subsume(); err != nil {
		t.Fatalf("Subsume: %v", err)
	}
	if err := d.Expand(); err != nil {
		t.Fatalf("Expand after Subsume: %v", err)
	}
	if _, err := d.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
}

func TestExpandThreeWayJoinGeneratesAllOrders(t *testing.T) {
	d := newTestDAG()
	// (A ⋈ B) ⋈ C with a chain predicate A.fk=B.id, B.fk=C.id.
	ab := algebra.JoinT(algebra.ColEq(algebra.Col("A", "fk"), algebra.Col("B", "id")),
		algebra.ScanT("A"), algebra.ScanT("B"))
	abc := algebra.JoinT(algebra.ColEq(algebra.Col("B", "fk"), algebra.Col("C", "id")),
		ab, algebra.ScanT("C"))
	root, err := d.AddQuery(abc)
	if err != nil {
		t.Fatal(err)
	}
	expand(t, d)

	// The root group must contain joins with different leading children:
	// (AB)C, A(BC), and their commutations. With the cross-product guard,
	// (AC)B is not generated for a chain query.
	root = root.Find()
	if len(root.Exprs) < 4 {
		t.Errorf("root group has %d exprs, want >= 4 (assoc+comm alternatives)", len(root.Exprs))
	}
	// Count live groups: A, B, C, AB, BC, ABC (+selects none) = 6 plus root pseudo.
	groups := d.LiveGroups()
	var joinGroups int
	for _, g := range groups {
		if len(g.Schema) >= 6 && len(g.Schema) < 9 { // two-relation join groups
			joinGroups++
		}
	}
	if joinGroups != 2 {
		t.Errorf("two-relation join groups = %d, want 2 (AB and BC, no cross product AC)", joinGroups)
	}
}

func TestUnificationOfSyntacticallyDifferentTrees(t *testing.T) {
	d := newTestDAG()
	// Query 1: (A ⋈ B) ⋈ C; Query 2: A ⋈ (B ⋈ C). After expansion the two
	// roots must unify into one equivalence node.
	pAB := algebra.ColEq(algebra.Col("A", "fk"), algebra.Col("B", "id"))
	pBC := algebra.ColEq(algebra.Col("B", "fk"), algebra.Col("C", "id"))
	q1 := algebra.JoinT(pBC, algebra.JoinT(pAB, algebra.ScanT("A"), algebra.ScanT("B")), algebra.ScanT("C"))
	q2 := algebra.JoinT(pAB, algebra.ScanT("A"), algebra.JoinT(pBC, algebra.ScanT("B"), algebra.ScanT("C")))
	r1, err := d.AddQuery(q1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.AddQuery(q2)
	if err != nil {
		t.Fatal(err)
	}
	expand(t, d)
	if r1.Find() != r2.Find() {
		t.Error("equivalent queries did not unify into one equivalence node")
	}
}

func TestCommonSubexpressionSharedAcrossQueries(t *testing.T) {
	d := newTestDAG()
	q1 := chainQuery([]string{"A", "B", "C"}, 10)
	q2 := chainQuery([]string{"A", "B", "D"}, 10)
	r1, _ := d.AddQuery(q1)
	r2, _ := d.AddQuery(q2)
	expand(t, d)
	if r1.Find() == r2.Find() {
		t.Fatal("different queries unified")
	}
	// Both queries contain σ(A)⋈B; it must be a single shared group. Find a
	// group whose schema covers exactly A and B columns and check it has
	// parents from both query subtrees.
	var shared *Group
	for _, g := range d.LiveGroups() {
		if len(g.Schema) == 6 && g.Schema.Has(algebra.Col("A", "id")) && g.Schema.Has(algebra.Col("B", "id")) {
			shared = g
			break
		}
	}
	if shared == nil {
		t.Fatal("no σ(A)⋈B group found")
	}
	if len(shared.Parents()) < 2 {
		t.Errorf("σ(A)⋈B group has %d parents, want >= 2 (shared)", len(shared.Parents()))
	}
}

func TestSelectSubsumptionRangeImplication(t *testing.T) {
	d := newTestDAG()
	// σnum>=80(A) and σnum>=50(A): the former should gain a derivation from
	// the latter.
	q1 := algebra.SelectT(algebra.Cmp(algebra.Col("A", "num"), algebra.GE, algebra.IntVal(80)), algebra.ScanT("A"))
	q2 := algebra.SelectT(algebra.Cmp(algebra.Col("A", "num"), algebra.GE, algebra.IntVal(50)), algebra.ScanT("A"))
	r1, _ := d.AddQuery(q1)
	r2, _ := d.AddQuery(q2)
	expand(t, d)

	found := false
	for _, e := range r1.Find().Exprs {
		if !e.Subsumption {
			continue
		}
		if len(e.Children) == 1 && e.Children[0].Find() == r2.Find() {
			found = true
		}
	}
	if !found {
		t.Error("no subsumption derivation σ>=80(σ>=50(A)) found")
	}
}

func TestEqualityDisjunctionNode(t *testing.T) {
	d := newTestDAG()
	q1 := algebra.SelectT(algebra.Cmp(algebra.Col("A", "num"), algebra.EQ, algebra.IntVal(5)), algebra.ScanT("A"))
	q2 := algebra.SelectT(algebra.Cmp(algebra.Col("A", "num"), algebra.EQ, algebra.IntVal(10)), algebra.ScanT("A"))
	r1, _ := d.AddQuery(q1)
	r2, _ := d.AddQuery(q2)
	expand(t, d)

	// A disjunction group σ(num=5 ∨ num=10)(A) must exist and both query
	// roots must have subsumption derivations from it.
	var disj *Group
	for _, g := range d.LiveGroups() {
		if g.SubsumpNode {
			disj = g
			break
		}
	}
	if disj == nil {
		t.Fatal("no disjunction subsumption node created")
	}
	for i, r := range []*Group{r1.Find(), r2.Find()} {
		ok := false
		for _, e := range r.Exprs {
			if e.Subsumption && len(e.Children) == 1 && e.Children[0].Find() == disj {
				ok = true
			}
		}
		if !ok {
			t.Errorf("query %d has no derivation from the disjunction node", i+1)
		}
	}
}

func TestAggregateSubsumption(t *testing.T) {
	d := newTestDAG()
	sumExpr := algebra.AggExpr{Func: algebra.Sum, Arg: algebra.ColOf("A", "num"), As: algebra.Col("q", "s")}
	q1 := algebra.AggT([]algebra.Column{algebra.Col("A", "id")}, []algebra.AggExpr{sumExpr}, algebra.ScanT("A"))
	q2 := algebra.AggT([]algebra.Column{algebra.Col("A", "fk")}, []algebra.AggExpr{sumExpr}, algebra.ScanT("A"))
	r1, _ := d.AddQuery(q1)
	r2, _ := d.AddQuery(q2)
	expand(t, d)

	var union *Group
	for _, g := range d.LiveGroups() {
		if !g.SubsumpNode {
			continue
		}
		for _, e := range g.Exprs {
			if a, ok := e.Op.(algebra.Aggregate); ok && len(a.GroupBy) == 2 {
				union = g
			}
		}
	}
	if union == nil {
		t.Fatal("no group-by-union node created")
	}
	for i, r := range []*Group{r1.Find(), r2.Find()} {
		ok := false
		for _, e := range r.Exprs {
			if e.Subsumption && len(e.Children) == 1 && e.Children[0].Find() == union {
				ok = true
			}
		}
		if !ok {
			t.Errorf("aggregate %d has no re-aggregation derivation from the union node", i+1)
		}
	}
}

func TestParamDependencePropagates(t *testing.T) {
	d := newTestDAG()
	inner := algebra.SelectT(algebra.CmpParam(algebra.Col("A", "id"), algebra.EQ, "outer_id"),
		algebra.JoinT(algebra.ColEq(algebra.Col("A", "fk"), algebra.Col("B", "id")),
			algebra.ScanT("A"), algebra.ScanT("B")))
	r, _ := d.AddQuery(inner)
	expand(t, d)
	if !r.Find().ParamDep {
		t.Error("root of parameterized query should be ParamDep")
	}
	// The invariant join A⋈B (a join of two base scans) must NOT be
	// param-dependent. Other 6-column groups (e.g. σparam(A)⋈B created by
	// select push-down) legitimately are.
	found := false
	for _, g := range d.LiveGroups() {
		for _, e := range g.Exprs {
			if _, ok := e.Op.(algebra.Join); !ok {
				continue
			}
			scans := 0
			for _, c := range e.Children {
				for _, ce := range c.Find().Exprs {
					if _, ok := ce.Op.(algebra.Scan); ok {
						scans++
						break
					}
				}
			}
			if scans == 2 {
				found = true
				if g.ParamDep {
					t.Error("invariant join group marked ParamDep")
				}
			}
		}
	}
	if !found {
		t.Error("no join-of-scans group found")
	}
}

func TestDAGInvariants(t *testing.T) {
	d := newTestDAG()
	d.AddQuery(chainQuery([]string{"A", "B", "C", "D"}, 10))
	d.AddQuery(chainQuery([]string{"B", "C", "D", "E"}, 20))
	expand(t, d)

	checkIdentities(t, d)
	for _, g := range d.LiveGroups() {
		if g.Find() != g {
			t.Fatal("LiveGroups returned a forwarded group")
		}
		if len(g.Exprs) == 0 {
			t.Errorf("group %d has no expressions", g.ID)
		}
		for _, e := range g.Exprs {
			if e.Group.Find() != g {
				t.Errorf("expr owner mismatch in group %d", g.ID)
			}
			if e.Op.Arity() != len(e.Children) {
				t.Errorf("arity mismatch for %v", e.Op)
			}
		}
	}
	checkAcyclic(t, "chains", d)
}

// checkAcyclic asserts that no group of d is its own input, directly or
// through others: depth-first from the root never meets a group on the
// current path.
func checkAcyclic(t *testing.T, name string, d *DAG) {
	t.Helper()
	const onPath, done = 1, 2
	state := map[*Group]int{}
	var visit func(g *Group) bool
	visit = func(g *Group) bool {
		g = g.Find()
		switch state[g] {
		case onPath:
			return false
		case done:
			return true
		}
		state[g] = onPath
		for _, e := range g.Exprs {
			for _, c := range e.Children {
				if !visit(c) {
					return false
				}
			}
		}
		state[g] = done
		return true
	}
	if !visit(d.Root) {
		t.Errorf("%s: the DAG has a cycle through equivalence nodes", name)
	}
}

// expandCapped is Expand that gives up instead of running on, after limit
// visits or at an expression of more than limit conjuncts: a predicate that
// grows with every merge — doubling, when it merges with itself — adds no
// group for MaxGroups to count.
func expandCapped(limit int) func(*DAG) error {
	return func(d *DAG) error {
		for visits := 0; len(d.worklist) > 0; visits++ {
			if visits == limit {
				return fmt.Errorf("expansion still running after %d visits", limit)
			}
			e := d.worklist[len(d.worklist)-1]
			d.worklist = d.worklist[:len(d.worklist)-1]
			if e.dropped {
				continue
			}
			if len(e.pred.ids) > limit {
				return fmt.Errorf("expansion made a predicate of %d conjuncts in group %d", len(e.pred.ids), e.Group.Find().ID)
			}
			if err := d.applyRules(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestRepeatedConjunctTerminates stacks selections that repeat a conjunct,
// σ[10≤D.num](σ[20=D.num](σ[10≤D.num](…))). Beside C ⋈ σ[10≤D.num](D), a
// group comes to hold a select over itself, and ruleSelectMerge used to
// lengthen that select's predicate for ever: a conjunction was a multiset of
// clauses. It is a set now, so the merge ends. A select over its own group
// fires no rule — pushing it down into each new join of the group would make
// a new group each time (the two single queries below) — and Finalize drops
// it, so the DAG has no cycle.
func TestRepeatedConjunctTerminates(t *testing.T) {
	dn, bn := algebra.Col("D", "num"), algebra.Col("B", "num")
	cd := algebra.JoinT(algebra.ColEq(algebra.Col("C", "fk"), algebra.Col("D", "id")), algebra.ScanT("C"), algebra.ScanT("D"))
	bc := algebra.JoinT(algebra.ColEq(algebra.Col("B", "fk"), algebra.Col("C", "id")), algebra.ScanT("B"), algebra.ScanT("C"))
	stack := func(col algebra.Column, in *algebra.Tree) *algebra.Tree {
		ge := algebra.Cmp(col, algebra.GE, algebra.IntVal(10))
		return algebra.SelectT(ge, algebra.SelectT(algebra.Cmp(col, algebra.EQ, algebra.IntVal(20)), algebra.SelectT(ge, in)))
	}
	for i, batch := range [][]*algebra.Tree{
		{
			algebra.JoinT(algebra.ColEq(algebra.Col("C", "fk"), algebra.Col("D", "id")), algebra.ScanT("C"),
				algebra.SelectT(algebra.Cmp(dn, algebra.GE, algebra.IntVal(10)), algebra.ScanT("D"))),
			stack(dn, algebra.SelectT(algebra.Cmp(dn, algebra.EQ, algebra.IntVal(10)), cd)),
		},
		{stack(bn, algebra.ScanT("B"))},
		{stack(bn, bc)},
	} {
		b := identityBatch{name: fmt.Sprintf("batch %d", i), cat: testCatalog(), queries: batch}
		d := b.buildWith(t, expandCapped(1000))
		checkAcyclic(t, b.name, d)
		for _, g := range d.LiveGroups() {
			for _, e := range g.Exprs {
				seen := map[clauseID]bool{}
				for _, id := range e.pred.ids {
					if seen[id] {
						t.Errorf("%s: group %d: %s repeats a conjunct", b.name, g.ID, rendering(e))
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestMaxGroupsGuard(t *testing.T) {
	d := newTestDAG()
	d.MaxGroups = 3
	d.AddQuery(chainQuery([]string{"A", "B", "C", "D", "E"}, 10))
	if err := d.Expand(); err == nil {
		t.Error("Expand should fail when MaxGroups is exceeded")
	}
}

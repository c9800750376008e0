package dag

import (
	"fmt"

	"mqo/internal/algebra"
)

// Expand applies the transformation rule set — join commutativity, join
// associativity, select merging, select push-down and select-into-join — to
// fixpoint, producing the expanded DAG (paper §2, Figure 1c). Duplicate
// derivations are suppressed by the expression table; commutativity
// additionally carries a [PGLK97]-style flag so an expression produced by
// commuting is not commuted back.
//
// The fixpoint is semi-naive: an expression is queued again whenever its
// input group gains an alternative, but a rule that pairs it with the
// alternatives of that group fires only on those that joined the group since
// the expression's last visit (unseen), not on every pair again.
func (d *DAG) Expand() error {
	for len(d.worklist) > 0 {
		e := d.worklist[len(d.worklist)-1]
		d.worklist = d.worklist[:len(d.worklist)-1]
		if e.dropped {
			continue
		}
		if d.MaxGroups > 0 && len(d.Groups) > d.MaxGroups {
			return fmt.Errorf("dag: expansion exceeded MaxGroups=%d", d.MaxGroups)
		}
		if err := d.applyRules(e); err != nil {
			return err
		}
	}
	return nil
}

// unseen returns the expressions of g stamped later than since, as they are
// now, for a rule to range over while its insertions grow, merge or prune
// g's list itself. Rules run one at a time and range over one list each, so
// they share the buffer.
//
// since is the clock of the last visit of the expression e the rule is
// applied to. What the rule made of e and an alternative stamped no later is
// still in the table and still in the group it was put in — unification has
// re-keyed it along with the inputs it was made from, and a predicate splits
// the same way over equivalent groups, whose columns are equal — so firing
// on that pair again would look up two keys, find both where they belong and
// change nothing.
func (d *DAG) unseen(g *Group, since uint32) []*Expr {
	d.snap = d.snap[:0]
	for _, e := range g.Exprs {
		if e.stamp > since {
			d.snap = append(d.snap, e)
		}
	}
	return d.snap
}

func (d *DAG) applyRules(e *Expr) error {
	// The visit is recorded before the rules run: what they add to the input
	// group themselves is stamped later and so unseen on the next visit, and
	// a unification under way that re-keys e zeroes seen for good.
	since := e.seen
	e.seen = d.clock
	switch e.key.kind {
	case kindJoin:
		if err := d.ruleJoinCommute(e); err != nil {
			return err
		}
		return d.ruleJoinAssociate(e, since)
	case kindSelect:
		if e.Children[0].Find() == e.Group.Find() {
			// σp(G) in G: G's rows all satisfy p already, so merging or
			// pushing p only stacks the same filter again — and pushing it
			// into every new join of G makes a new group each time.
			return nil
		}
		if err := d.ruleSelectMerge(e, since); err != nil {
			return err
		}
		return d.ruleSelectPushdown(e, since)
	case kindAggregate:
		return d.ruleEagerAggregation(e, e.Op.(algebra.Aggregate), since)
	}
	return nil
}

// ruleEagerAggregation rewrites Agg_G(σp(E)) into
// Agg_G(reagg)(σp(Agg_{G∪cols(p)}(E))) for decomposable aggregates: rows
// are grouped by the selection's columns first, the (possibly parameter-
// dependent) selection then filters whole groups, and a re-aggregation
// recovers the original result. When p references only group-by columns
// the selection simply commutes: σp(Agg_G(E)).
//
// This derivation is what lets the optimizer share the parameter-free
// pre-aggregate across invocations of a nested query whose correlation
// predicate defeats index access (the paper's Q2 "not in" variant, §6.1):
// each invocation filters and re-aggregates the small materialized
// pre-aggregate instead of recomputing the full join.
func (d *DAG) ruleEagerAggregation(e *Expr, op algebra.Aggregate, since uint32) error {
	if e.Subsumption {
		return nil
	}
	for _, a := range op.Aggs {
		if !a.Func.Decomposable() {
			return nil
		}
	}
	child := e.Children[0].Find()
	for _, ce := range d.unseen(child, since) {
		if ce.key.kind != kindSelect || ce.Subsumption || ce.dropped {
			continue
		}
		pcols := ce.pred.predicate().Columns()
		if len(pcols) == 0 || len(pcols) > 2 {
			continue
		}
		base := ce.Children[0].Find()
		if !base.schema().HasAll(pcols) {
			continue
		}
		gu := unionColumns(op.GroupBy, pcols)
		if len(gu) == len(op.GroupBy) {
			// p references only group-by columns: commute.
			agg, err := d.insertLike(e, []*Group{base}, nil, true)
			if err != nil {
				return err
			}
			if _, err := d.insertLike(ce, []*Group{agg.Group.Find()}, e.Group.Find(), true); err != nil {
				return err
			}
			continue
		}
		ig, err := d.insertSubsumpNode(algebra.Aggregate{GroupBy: gu, Aggs: op.Aggs}, base)
		if err != nil {
			return err
		}
		sel, err := d.insertLike(ce, []*Group{ig}, nil, true)
		if err != nil {
			return err
		}
		reaggs := make([]algebra.AggExpr, len(op.Aggs))
		for i, a := range op.Aggs {
			reaggs[i] = algebra.AggExpr{Func: a.Func.Reaggregate(), Arg: algebra.ColExpr{C: a.As}, As: a.As}
		}
		if _, err := d.insertOp(algebra.Aggregate{GroupBy: op.GroupBy, Aggs: reaggs},
			[]*Group{sel.Group.Find()}, e.Group.Find(), true); err != nil {
			return err
		}
	}
	return nil
}

// ruleJoinCommute adds the commuted join A⋈B → B⋈A under the same
// equivalence node.
func (d *DAG) ruleJoinCommute(e *Expr) error {
	if e.commuted {
		return nil
	}
	e.commuted = true
	ne, err := d.insertLike(e, []*Group{e.Children[1], e.Children[0]}, e.Group, e.Subsumption)
	if err != nil {
		return err
	}
	ne.commuted = true // commuting back would only rediscover e
	return nil
}

// ruleJoinAssociate rewrites (A⋈B)⋈C → A⋈(B⋈C), splitting the combined
// predicate so that conjuncts referring only to B∪C move into the lower
// join. Derivations that would introduce a cross product are skipped unless
// the combined predicate itself is empty (pure cross-product query).
func (d *DAG) ruleJoinAssociate(e *Expr, since uint32) error {
	left := e.Children[0].Find()
	right := e.Children[1].Find()
	pBC, pTop := &d.scratch[0], &d.scratch[1]
	for _, le := range d.unseen(left, since) {
		if le.key.kind != kindJoin || le.dropped {
			continue
		}
		gA := le.Children[0].Find()
		gB := le.Children[1].Find()
		pBC.reset()
		pTop.reset()
		for _, p := range [2]pred{le.pred, e.pred} {
			for i, id := range p.ids {
				if d.in.clauseCols[id].within(gB.cols, right.cols) {
					pBC.add(p, i)
				} else {
					pTop.add(p, i)
				}
			}
		}
		if len(pBC.ids) == 0 && len(pTop.ids) > 0 {
			continue // would create a cross product
		}
		bcExpr, err := d.insertPred(kindJoin, pBC, []*Group{gB, right}, nil, false)
		if err != nil {
			return err
		}
		if _, err := d.insertPred(kindJoin, pTop, []*Group{gA, bcExpr.Group.Find()}, e.Group, false); err != nil {
			return err
		}
	}
	return nil
}

// ruleSelectMerge collapses σp(σq(E)) into σ(p∧q)(E) as an alternative
// derivation.
func (d *DAG) ruleSelectMerge(e *Expr, since uint32) error {
	child := e.Children[0].Find()
	merged := &d.scratch[0]
	for _, ce := range d.unseen(child, since) {
		if ce.key.kind != kindSelect || ce.dropped {
			continue
		}
		merged.reset()
		merged.addAll(e.pred)
		merged.addAll(ce.pred)
		if _, err := d.insertPred(kindSelect, merged, []*Group{ce.Children[0]}, e.Group, false); err != nil {
			return err
		}
	}
	return nil
}

// ruleSelectPushdown rewrites σp(A⋈B): conjuncts of p covered by one side
// are pushed onto that side, the remainder merges into the join predicate.
func (d *DAG) ruleSelectPushdown(e *Expr, since uint32) error {
	child := e.Children[0].Find()
	pA, pB, pJoin := &d.scratch[0], &d.scratch[1], &d.scratch[2]
	for _, ce := range d.unseen(child, since) {
		if ce.key.kind != kindJoin || ce.dropped {
			continue
		}
		gA := ce.Children[0].Find()
		gB := ce.Children[1].Find()
		pA.reset()
		pB.reset()
		pJoin.reset()
		pJoin.addAll(ce.pred)
		for i, id := range e.pred.ids {
			switch cols := d.in.clauseCols[id]; {
			case cols.within(gA.cols, nil):
				pA.add(e.pred, i)
			case cols.within(gB.cols, nil):
				pB.add(e.pred, i)
			default:
				pJoin.add(e.pred, i)
			}
		}
		newA, newB := gA, gB
		if len(pA.ids) > 0 {
			ae, err := d.insertPred(kindSelect, pA, []*Group{gA}, nil, false)
			if err != nil {
				return err
			}
			newA = ae.Group.Find()
		}
		if len(pB.ids) > 0 {
			be, err := d.insertPred(kindSelect, pB, []*Group{gB}, nil, false)
			if err != nil {
				return err
			}
			newB = be.Group.Find()
		}
		// Nothing pushed and no clause added (each is a repeat) finds ce
		// itself, which unifies e's group with ce's: σp(A⋈B) is A⋈B.
		if _, err := d.insertPred(kindJoin, pJoin, []*Group{newA, newB}, e.Group, false); err != nil {
			return err
		}
	}
	return nil
}

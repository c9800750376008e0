package dag

import (
	"sort"

	"mqo/internal/algebra"
)

// Subsume adds subsumption derivations (paper §2.1, extension 2) to the
// expanded DAG:
//
//   - re-select derivations: when σp(E) and σq(E) both exist and p implies
//     q, add the alternative σp(result of σq(E));
//   - disjunction nodes: for equality selections col = v₁, col = v₂, ... on
//     the same input, add σ(col=v₁ ∨ col=v₂ ∨ ...)(E) and derive each
//     selection from it by re-selection;
//   - aggregate subsumption: for aggregates over the same input with
//     group-by sets G₁, G₂, add an aggregate on G₁ ∪ G₂ computing the union
//     of the aggregate outputs and derive each original by re-aggregation.
//
// Subsume enqueues new expressions; call Expand again afterwards so
// transformation rules see them, then Finalize.
//
// Derivations are added in input-group ID order, and within an input in
// column order — never in the order a Go map yields — so group IDs and the
// order of a group's expressions, and with them every index the physical
// layer derives, are the same on every run.
func (d *DAG) Subsume() error {
	selsByChild := map[*Group][]*Expr{}
	type aggEntry struct {
		e  *Expr
		op algebra.Aggregate
	}
	aggsByChild := map[*Group][]aggEntry{}

	for _, g := range d.LiveGroups() {
		for _, e := range g.Exprs {
			if e.Subsumption {
				continue
			}
			switch op := e.Op.(type) {
			case algebra.Select:
				c := e.Children[0].Find()
				selsByChild[c] = append(selsByChild[c], e)
			case algebra.Aggregate:
				c := e.Children[0].Find()
				aggsByChild[c] = append(aggsByChild[c], aggEntry{e: e, op: op})
			}
		}
	}

	byID := func(a, b *Group) bool { return a.ID < b.ID }
	selChildren := sortedKeys(selsByChild, byID)

	// Re-select derivations for implied predicates.
	for _, child := range selChildren {
		sels := selsByChild[child]
		for i := range sels {
			for j := range sels {
				if i == j {
					continue
				}
				p, q := sels[i].pred.predicate(), sels[j].pred.predicate()
				if sels[i].key.op == sels[j].key.op || !p.Implies(q) { // same predicate, or no containment
					continue
				}
				// σp(E) ≡ σp(σq(E)): derive group(i) from group(j).
				if _, err := d.insertLike(sels[i], []*Group{sels[j].Group.Find()}, sels[i].Group.Find(), true); err != nil {
					return err
				}
			}
		}
	}

	// Disjunction nodes for equality selections on a common column.
	for _, child := range selChildren {
		sels := selsByChild[child]
		type eqSel struct {
			e *Expr
			v algebra.Value
		}
		byCol := map[algebra.Column][]eqSel{}
		for _, s := range sels {
			if col, op, v, ok := s.pred.predicate().SingleColumnRange(); ok && op == algebra.EQ {
				byCol[col] = append(byCol[col], eqSel{e: s, v: v})
			}
		}
		for _, col := range sortedKeys(byCol, algebra.Column.Less) {
			group := byCol[col]
			// Distinct values only.
			seen := map[string]bool{}
			var members []eqSel
			var vals []algebra.Value
			for _, m := range group {
				k := m.v.String()
				if seen[k] {
					continue
				}
				seen[k] = true
				members = append(members, m)
				vals = append(vals, m.v)
			}
			if len(members) < 2 {
				continue
			}
			sort.Slice(vals, func(i, j int) bool { return algebra.Compare(vals[i], vals[j]) < 0 })
			dg, err := d.insertSubsumpNode(algebra.Select{Pred: algebra.OrValues(col, algebra.EQ, vals)}, child)
			if err != nil {
				return err
			}
			for _, m := range members {
				if m.e.Group.Find() == dg {
					continue
				}
				if _, err := d.insertLike(m.e, []*Group{dg}, m.e.Group.Find(), true); err != nil {
					return err
				}
			}
		}
	}

	// Aggregate subsumption: group-by union nodes.
	for _, child := range sortedKeys(aggsByChild, byID) {
		aggs := aggsByChild[child]
		for i := range aggs {
			for j := i + 1; j < len(aggs); j++ {
				if err := d.subsumeAggPair(child, aggs[i].e, aggs[i].op, aggs[j].e, aggs[j].op); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// insertSubsumpNode adds op(child), a result no query asked for but several
// can be derived from — a disjunction, a group-by union, a pre-aggregate —
// and returns its group, labelled SubsumpNode if the derivation created it.
// When the batch holds that very expression already, the group is a query's
// or a rule's own and stays a real one.
func (d *DAG) insertSubsumpNode(op algebra.Op, child *Group) (*Group, error) {
	before := len(d.Groups)
	e, err := d.insertOp(op, []*Group{child}, nil, true)
	if err != nil {
		return nil, err
	}
	g := e.Group.Find()
	if len(d.Groups) > before {
		g.SubsumpNode = true
	}
	return g, nil
}

// sortedKeys returns m's keys in the order less defines.
func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

// subsumeAggPair adds the group-by-union derivation for two aggregates over
// the same input when all aggregate functions are decomposable.
func (d *DAG) subsumeAggPair(child *Group, e1 *Expr, a1 algebra.Aggregate, e2 *Expr, a2 algebra.Aggregate) error {
	for _, a := range a1.Aggs {
		if !a.Func.Decomposable() {
			return nil
		}
	}
	for _, a := range a2.Aggs {
		if !a.Func.Decomposable() {
			return nil
		}
	}
	union := unionColumns(a1.GroupBy, a2.GroupBy)
	if len(union) == len(a1.GroupBy) && len(union) == len(a2.GroupBy) {
		return nil // identical group-by sets: nothing to unify
	}
	// Merge aggregate outputs by output column; bail out on a conflicting
	// definition under the same name.
	merged := append([]algebra.AggExpr(nil), a1.Aggs...)
	for _, a := range a2.Aggs {
		conflict := false
		dup := false
		for _, b := range merged {
			if b.As == a.As {
				if b.Fingerprint() == a.Fingerprint() {
					dup = true
				} else {
					conflict = true
				}
			}
		}
		if conflict {
			return nil
		}
		if !dup {
			merged = append(merged, a)
		}
	}
	ug, err := d.insertSubsumpNode(algebra.Aggregate{GroupBy: union, Aggs: merged}, child)
	if err != nil {
		return err
	}
	for _, pair := range []struct {
		e  *Expr
		op algebra.Aggregate
	}{{e1, a1}, {e2, a2}} {
		if pair.e.Group.Find() == ug {
			continue
		}
		reaggs := make([]algebra.AggExpr, len(pair.op.Aggs))
		for i, a := range pair.op.Aggs {
			reaggs[i] = algebra.AggExpr{Func: a.Func.Reaggregate(), Arg: algebra.ColExpr{C: a.As}, As: a.As}
		}
		if _, err := d.insertOp(algebra.Aggregate{GroupBy: pair.op.GroupBy, Aggs: reaggs},
			[]*Group{ug}, pair.e.Group.Find(), true); err != nil {
			return err
		}
	}
	return nil
}

// unionColumns returns the sorted union of two column sets.
func unionColumns(a, b []algebra.Column) []algebra.Column {
	seen := map[algebra.Column]bool{}
	var out []algebra.Column
	for _, c := range append(append([]algebra.Column(nil), a...), b...) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

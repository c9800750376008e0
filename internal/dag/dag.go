// Package dag implements the logical AND-OR DAG (paper §2): equivalence
// nodes (OR, called Group here) whose children are operation nodes (AND,
// called Expr), with
//
//   - hash-based detection of duplicate operation nodes and unification of
//     equivalence nodes (§2.1 extension 1), on interned integer identities:
//     each distinct clause, predicate-free operator and column gets a dense
//     ID the first time it is seen, an operation node is keyed on (operator
//     kind, operator ID, input group IDs), and no operator is rendered
//     again after its clauses are born,
//   - transformation rules — join commutativity and associativity with
//     duplicate-derivation avoidance in the style of [PGLK97], select
//     merging and select-into-join — applied to fixpoint to produce the
//     expanded DAG, and
//   - subsumption derivations (§2.1 extension 2): re-select derivations for
//     implied predicates, disjunction nodes for same-column selections, and
//     group-by-union nodes for aggregates over a shared input.
package dag

import (
	"fmt"
	"slices"
	"sort"

	"mqo/internal/algebra"
	"mqo/internal/cost"
)

// GroupID identifies an equivalence node. IDs are stable; unified groups
// keep their IDs but forward to a representative.
type GroupID int32

// Expr is an operation node (AND node): an operator applied to child
// equivalence nodes.
type Expr struct {
	Op       algebra.Op
	Children []*Group
	Group    *Group // owning equivalence node

	// Subsumption marks derivations introduced by the subsumption pass;
	// Volcano-SH treats these specially (paper §3.2 prepass).
	Subsumption bool

	dropped bool // unification found it a duplicate and removed it

	// rule-application flag, per [PGLK97], to avoid deriving the same
	// expression repeatedly.
	commuted bool

	key exprKey // current identity (maintained under unification)

	// stamp is the DAG's clock when the expression joined its group's list:
	// when it was born, or when unification moved it in. seen is the clock
	// when the expression's rules last ranged over its first input's
	// alternatives; those stamped no later have fired with it already (see
	// DAG.unseen). Unification zeroes seen when it re-keys the expression.
	stamp, seen uint32

	pred pred // select, join: Op's predicate with its clauses' IDs
}

// Group is an equivalence node (OR node): the set of operation nodes
// producing the same logical result.
type Group struct {
	ID    GroupID
	Exprs []*Expr

	// Rel is the estimated profile (cardinality, width, column stats) of
	// the common result.
	Rel cost.Rel

	// Schema is the canonical (sorted) column set of the result. Finalize
	// fills it for every live group. Before that it is nil for a group a
	// join created, and for one a select or invoke created over such a
	// group, unless an aggregate over the group needed it: most groups
	// expansion creates are unified away, and rules need only the columns.
	Schema algebra.Schema

	// ParamDep marks groups whose result depends on a correlation or query
	// parameter. Such groups are never whole-expression materialization
	// candidates — one table cannot stand for all bindings — but the result
	// cache stores them per binding, keyed by (fingerprint, binding): the
	// canonical fingerprint renders parameters by name ("?name"), so it
	// plus one concrete binding identifies one result exactly.
	ParamDep bool

	// SubsumpNode marks groups introduced purely by subsumption
	// derivations (disjunction and group-by-union nodes); Volcano-SH's
	// prepass/undo logic keys on it.
	SubsumpNode bool

	cols    colSet  // Schema's columns as the DAG's interner numbers them
	parents []*Expr // operation nodes that have this group as an input
	forward *Group  // non-nil after unification: the representative
}

// Find resolves the group through unification forwarding, with path
// compression. It writes only when it shortens a chain, which after Finalize
// it never does: there every forward already points at its representative.
func (g *Group) Find() *Group {
	if g.forward == nil {
		return g
	}
	r := g.forward.Find()
	if g.forward != r {
		g.forward = r
	}
	return r
}

// Parents returns the operation nodes using this group as input. The caller
// must not mutate the slice.
func (g *Group) Parents() []*Expr { return g.parents }

// DAG is the logical AND-OR DAG for a batch of queries, sharing a single
// expression table so common subexpressions across queries unify.
//
// A finalized DAG is read-only: Finalize builds every live group's schema
// and points every forwarded group straight at its representative, so from
// then on nothing — Find, the group and expression fields, the estimator's
// Rels — writes to it, and any number of goroutines may read it at once,
// each building its own physical DAG over it. It must not be added to or
// expanded again.
type DAG struct {
	Est cost.Estimator

	Groups []*Group // all live (non-forwarded) groups, in creation order

	// Root is the pseudo-root equivalence node whose single NoOp operation
	// node has every query root as input (paper §2.1). Set by Finalize.
	Root *Group
	// QueryRoots are the root groups of the individual queries, in the
	// order they were added.
	QueryRoots []*Group

	// Derivations counts the operation nodes insertion was asked for, by
	// query trees, rules and subsumption alike; Duplicates counts those the
	// expression table already held. Their ratio says how much of the
	// expansion's work is rediscovery.
	Derivations, Duplicates int

	in       interner
	table    map[exprKey]*Expr
	nextID   GroupID
	clock    uint32 // ticks at every birth and unification; see Expr.stamp
	worklist []*Expr
	scratch  [3]pred // predicates a rule is putting together
	snap     []*Expr // the expressions a rule is ranging over

	// MaxGroups bounds expansion as a safety valve; 0 means unlimited.
	MaxGroups int
}

// New creates an empty DAG over the given estimator.
func New(est cost.Estimator) *DAG {
	return &DAG{Est: est, in: newInterner(), table: map[exprKey]*Expr{}}
}

// schemaOf computes the canonical schema of an expression and its column
// set. A join's schema is left nil, to be built when somebody asks (see
// Group.schema), and a select's or invoke's is then nil with it.
func (d *DAG) schemaOf(op algebra.Op, children []*Group) (algebra.Schema, colSet, error) {
	var s algebra.Schema
	switch o := op.(type) {
	case algebra.Scan:
		t, err := d.Est.Cat.Table(o.Table)
		if err != nil {
			return nil, nil, err
		}
		s = t.Schema(o.Alias)
	case algebra.Select, algebra.Invoke:
		return children[0].Schema, children[0].cols, nil
	case algebra.Join:
		return nil, children[0].cols.union(children[1].cols), nil
	case algebra.Aggregate:
		in := children[0].schema()
		for _, c := range o.GroupBy {
			i := in.IndexOf(c)
			if i < 0 {
				return nil, nil, fmt.Errorf("dag: group-by column %v not in input schema", c)
			}
			s = append(s, in[i])
		}
		for _, a := range o.Aggs {
			t := algebra.TFloat
			if a.Func == algebra.CountAll {
				t = algebra.TInt
			}
			s = append(s, algebra.ColInfo{Col: a.As, Typ: t})
		}
	case algebra.Project:
		for _, ne := range o.Exprs {
			s = append(s, algebra.ColInfo{Col: ne.As, Typ: ne.Typ})
		}
	case algebra.NoOp:
		return nil, nil, nil
	default:
		return nil, nil, fmt.Errorf("dag: unknown operator %T", op)
	}
	s = canonicalSchema(s)
	return s, d.in.schemaCols(s), nil
}

// canonicalSchema sorts a schema by column identity so equivalent results
// from different operand orders have identical schemas.
func canonicalSchema(s algebra.Schema) algebra.Schema {
	out := make(algebra.Schema, len(s))
	copy(out, s)
	sort.Slice(out, func(i, j int) bool { return out[i].Col.Less(out[j].Col) })
	return out
}

// mergeSchemas returns the canonical schema of a join from its inputs'
// canonical schemas: a merge of two sorted lists.
func mergeSchemas(l, r algebra.Schema) algebra.Schema {
	out := make(algebra.Schema, 0, len(l)+len(r))
	for len(l) > 0 && len(r) > 0 {
		if r[0].Col.Less(l[0].Col) {
			out, r = append(out, r[0]), r[1:]
		} else {
			out, l = append(out, l[0]), l[1:]
		}
	}
	return append(append(out, l...), r...)
}

// schema returns g's Schema, building it first if it was left nil when g was
// created. Every alternative of a group has the same canonical schema, so
// the first join, select or invoke still in g stands for the one that
// created it (unification drops such an expression only for an equal one) —
// but a select over g itself, which unification can leave, says nothing.
func (g *Group) schema() algebra.Schema {
	if g.Schema != nil {
		return g.Schema
	}
	for _, e := range g.Exprs {
		switch e.key.kind {
		case kindJoin:
			g.Schema = mergeSchemas(e.Children[0].Find().schema(), e.Children[1].Find().schema())
			return g.Schema
		case kindSelect, kindInvoke:
			if e.Children[0].Find() == g {
				continue
			}
			g.Schema = e.Children[0].Find().schema()
			return g.Schema
		}
	}
	return nil // a NoOp's group
}

// relOf estimates the profile of an expression from its children.
func (d *DAG) relOf(op algebra.Op, children []*Group) (cost.Rel, error) {
	switch o := op.(type) {
	case algebra.Scan:
		return d.Est.BaseRel(o.Table, o.Alias)
	case algebra.Select:
		return d.Est.ApplySelect(children[0].Find().Rel, o.Pred), nil
	case algebra.Join:
		return d.Est.ApplyJoin(children[0].Find().Rel, children[1].Find().Rel, o.Pred), nil
	case algebra.Aggregate:
		return d.Est.ApplyAggregate(children[0].Find().Rel, o), nil
	case algebra.Project:
		return d.Est.ApplyProject(children[0].Find().Rel, o), nil
	case algebra.Invoke:
		return children[0].Find().Rel, nil
	case algebra.NoOp:
		return cost.Rel{}, nil
	}
	return cost.Rel{}, fmt.Errorf("dag: unknown operator %T", op)
}

// paramDepOf computes parameter dependence of an expression.
func paramDepOf(op algebra.Op, children []*Group) bool {
	for _, c := range children {
		if c.Find().ParamDep {
			return true
		}
	}
	switch o := op.(type) {
	case algebra.Select:
		return o.Pred.HasParam()
	case algebra.Join:
		return o.Pred.HasParam()
	case algebra.Invoke:
		// The result of invoking the nested query for all bindings does
		// not itself depend on a single parameter value.
		return false
	}
	return false
}

// newGroup allocates a fresh equivalence node for an expression.
func (d *DAG) newGroup(op algebra.Op, children []*Group) (*Group, error) {
	rel, err := d.relOf(op, children)
	if err != nil {
		return nil, err
	}
	schema, cols, err := d.schemaOf(op, children)
	if err != nil {
		return nil, err
	}
	g := &Group{ID: d.nextID, Rel: rel, Schema: schema, cols: cols}
	d.nextID++
	d.Groups = append(d.Groups, g)
	return g, nil
}

// insertOp adds op(children) for an operator given in full — a query
// tree's, or one a subsumption derivation builds — interning its identity
// from its rendering.
func (d *DAG) insertOp(op algebra.Op, children []*Group, into *Group, subsumption bool) (*Expr, error) {
	var (
		kind opKind
		p    pred
	)
	switch o := op.(type) {
	case algebra.Scan:
		kind = kindScan
	case algebra.Select:
		kind, p = kindSelect, d.in.pred(o.Pred)
	case algebra.Join:
		kind, p = kindJoin, d.in.pred(o.Pred)
	case algebra.Aggregate:
		kind = kindAggregate
	case algebra.Project:
		kind = kindProject
	case algebra.Invoke:
		kind = kindInvoke
	case algebra.NoOp:
		kind = kindNoOp
	default:
		return nil, fmt.Errorf("dag: unknown operator %T", op)
	}
	var opID uint32
	switch kind {
	case kindSelect, kindJoin:
		opID = d.in.predID(p.ids)
	case kindNoOp: // identified by its inputs alone
	default:
		opID = d.in.opID(op)
	}
	return d.insert(kind, opID, op, p, children, into, subsumption)
}

// insertLike adds like's operator over other inputs.
func (d *DAG) insertLike(like *Expr, children []*Group, into *Group, subsumption bool) (*Expr, error) {
	return d.insert(like.key.kind, like.key.op, like.Op, like.pred, children, into, subsumption)
}

// insertPred adds the select or join on a predicate a rule has put together
// in scratch from clauses of existing expressions.
func (d *DAG) insertPred(kind opKind, p *pred, children []*Group, into *Group, subsumption bool) (*Expr, error) {
	return d.insert(kind, d.in.predID(p.ids), nil, *p, children, into, subsumption)
}

// insert adds kind[opID](children) to the DAG, opID being the operator's
// interned identity. A select or join comes with its predicate p; its op
// may then be nil, meaning p is a rule's scratch and the operator is built
// from a copy of it should the expression be new. If the expression
// already exists it is returned (after unifying its group with `into` when
// both are specified and differ). If into is nil a fresh group is allocated
// for a new expression.
func (d *DAG) insert(kind opKind, opID uint32, op algebra.Op, p pred, children []*Group, into *Group, subsumption bool) (*Expr, error) {
	for i, c := range children {
		children[i] = c.Find()
	}
	d.Derivations++
	key := d.in.key(kind, opID, children)
	if e, ok := d.table[key]; ok {
		d.Duplicates++
		if into != nil && e.Group.Find() != into.Find() {
			d.unify(into.Find(), e.Group.Find())
		}
		return e, nil
	}
	if op == nil {
		p = pred{conj: append([]algebra.Clause(nil), p.conj...), ids: append([]clauseID(nil), p.ids...)}
		if kind == kindSelect {
			op = algebra.Select{Pred: p.predicate()}
		} else {
			op = algebra.Join{Pred: p.predicate()}
		}
	}
	g := into
	if g != nil {
		g = g.Find()
	}
	if g == nil {
		var err error
		g, err = d.newGroup(op, children)
		if err != nil {
			return nil, err
		}
	}
	d.clock++
	e := &Expr{Op: op, Children: append([]*Group(nil), children...), Group: g, Subsumption: subsumption, key: key, stamp: d.clock, pred: p}
	g.Exprs = append(g.Exprs, e)
	if pd := paramDepOf(op, children); pd {
		g.ParamDep = true
	}
	for _, c := range children {
		c.parents = append(c.parents, e)
	}
	d.table[key] = e
	d.worklist = append(d.worklist, e)
	// A new alternative in g can enable associativity in g's parents.
	for _, p := range g.parents {
		d.worklist = append(d.worklist, p)
	}
	return e, nil
}

// unify merges group b into group a (both must be representatives). All of
// b's expressions move into a; every expression referencing b is re-keyed
// by swapping the input's ID, which can cascade further unifications —
// exactly the paper's unification of duplicate equivalence nodes.
func (d *DAG) unify(a, b *Group) {
	a, b = a.Find(), b.Find()
	if a == b {
		return
	}
	// Keep the older group as representative for stable IDs.
	if b.ID < a.ID {
		a, b = b, a
	}
	b.forward = a
	a.ParamDep = a.ParamDep || b.ParamDep
	a.SubsumpNode = a.SubsumpNode && b.SubsumpNode

	// Move b's expressions into a, dropping duplicates. They are new to
	// a's parents, whatever b's have seen of them.
	d.clock++
	for _, e := range b.Exprs {
		if !e.dropped {
			e.Group = a
			e.stamp = d.clock
			a.Exprs = append(a.Exprs, e)
		}
	}
	b.Exprs = nil

	// Re-key all expressions that reference b as a child.
	refs := b.parents
	b.parents = nil
	for _, e := range refs {
		if e.dropped {
			continue
		}
		delete(d.table, e.key)
		for i, c := range e.Children {
			e.Children[i] = c.Find()
		}
		e.key = d.in.key(e.key.kind, e.key.op, e.Children)
		if other, ok := d.table[e.key]; ok {
			// e duplicates an existing expression: drop e, unify owners.
			eg, og := e.Group.Find(), other.Group.Find()
			removeExpr(eg, e)
			e.dropped = true
			if eg != og {
				d.unify(eg, og)
			}
			continue
		}
		d.table[e.key] = e
		a.parents = append(a.parents, e)
		e.seen = 0 // its input is another group now: all of it is unseen
		d.worklist = append(d.worklist, e)
	}
}

// removeExpr drops e from g's expression list.
func removeExpr(g *Group, e *Expr) {
	for i, x := range g.Exprs {
		if x == e {
			g.Exprs = append(g.Exprs[:i], g.Exprs[i+1:]...)
			return
		}
	}
}

// AddQuery inserts a logical operator tree into the DAG and records its root
// as a query root. Common subexpressions with previously added queries
// unify automatically through the shared expression table.
func (d *DAG) AddQuery(t *algebra.Tree) (*Group, error) {
	g, err := d.insertTree(t)
	if err != nil {
		return nil, err
	}
	d.QueryRoots = append(d.QueryRoots, g)
	return g, nil
}

func (d *DAG) insertTree(t *algebra.Tree) (*Group, error) {
	children := make([]*Group, len(t.Inputs))
	for i, in := range t.Inputs {
		c, err := d.insertTree(in)
		if err != nil {
			return nil, err
		}
		children[i] = c
	}
	e, err := d.insertOp(t.Op, children, nil, false)
	if err != nil {
		return nil, err
	}
	return e.Group.Find(), nil
}

// LiveGroups returns the current representative groups in creation order.
func (d *DAG) LiveGroups() []*Group {
	out := d.Groups[:0:0]
	for _, g := range d.Groups {
		if g.forward == nil {
			out = append(out, g)
		}
	}
	return out
}

// NumGroups counts live groups: len(LiveGroups()) without building it.
func (d *DAG) NumGroups() int {
	n := 0
	for _, g := range d.Groups {
		if g.forward == nil {
			n++
		}
	}
	return n
}

// NumExprs counts live operation nodes.
func (d *DAG) NumExprs() int {
	n := 0
	for _, g := range d.Groups {
		if g.forward == nil {
			n += len(g.Exprs)
		}
	}
	return n
}

// Finalize creates the pseudo-root NoOp node over all query roots and
// returns it, builds the schemas expansion left for later, drops every
// expression over its own group, and compresses every forwarding chain,
// leaving the DAG read-only (see DAG). Call after all queries are added and
// Expand has run.
//
// Unification can leave a select over its own group — σp(G) in G only says
// that G's rows satisfy p. Such an expression derives nothing, and it would
// give the physical DAG and the sharability recurrences a cycle.
func (d *DAG) Finalize() (*Group, error) {
	for _, g := range d.Groups {
		if g.forward == nil {
			g.schema()
			g.Exprs = slices.DeleteFunc(g.Exprs, func(e *Expr) bool {
				if !slices.ContainsFunc(e.Children, func(c *Group) bool { return c.Find() == g }) {
					return false
				}
				e.dropped = true
				delete(d.table, e.key)
				g.parents = slices.DeleteFunc(g.parents, func(p *Expr) bool { return p == e })
				return true
			})
		}
	}
	roots := make([]*Group, len(d.QueryRoots))
	for i, r := range d.QueryRoots {
		roots[i] = r.Find()
	}
	e, err := d.insertOp(algebra.NoOp{NInputs: len(roots)}, roots, nil, false)
	if err != nil {
		return nil, err
	}
	d.Root = e.Group.Find()
	for _, g := range d.Groups {
		g.Find()
	}
	return d.Root, nil
}

package physical

import (
	"fmt"
	"sort"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/dag"
)

// AlgKind enumerates implementation algorithms and enforcers.
type AlgKind uint8

// Implementation algorithms (paper §6: sort-based aggregation, merge join,
// nested loops join, indexed join, indexed select, relation scan) plus the
// enforcers and structural operators.
const (
	SeqScan AlgKind = iota
	BaseIndex
	IndexSelect
	Filter
	BNLJoin
	MergeJoin
	IndexJoin
	SortAgg
	ScalarAgg
	ProjectOp
	SortEnf
	IndexBuildEnf
	Batch
	InvokeOp
	// CacheScanOp reads a spooled result table of the cross-batch result
	// cache: a leaf access path armed per batch (ArmCacheScan) on nodes
	// whose logical fingerprint matched a ready cache entry.
	CacheScanOp
	// InvokePartial is a partial binding-cache hit on an Invoke node
	// (ArmInvokePartial): bindings whose (body fingerprint, binding) entry
	// is ready stream from per-binding cache tables, the residual bindings
	// run the body as usual, and the two sets concatenate in ParamSets
	// order so the output is byte-identical to a full recompute.
	InvokePartial
)

// String names the algorithm for plan printing.
func (k AlgKind) String() string {
	return [...]string{
		"SeqScan", "BaseIndex", "IndexSelect", "Filter", "BNLJoin",
		"MergeJoin", "IndexJoin", "SortAgg", "ScalarAgg", "Project",
		"Sort", "IndexBuild", "Batch", "Invoke", "CacheScan", "InvokePartial",
	}[k]
}

// PExpr is a physical operation node: one implementation algorithm applied
// to child physical equivalence nodes. A DAG holds tens of thousands of
// them and the costing recurrences walk them constantly, so the struct is
// kept to two cache lines (TestPExprSize): what only the result cache's
// armed alternatives carry sits behind Arm, and the index column is read
// off the index property of the node it belongs to (IxCol).
type PExpr struct {
	Kind     AlgKind
	id       int32     // position in the flat layout, what its arrays index (flatDAG.exprs)
	LE       *dag.Expr // originating logical expression (nil for enforcers)
	Children []*Node   // carved from the DAG's child slab, never appended to
	Node     *Node     // owner
	OpCost   cost.Cost // execution cost of this operator alone
	weight   float64   // see Weight

	// Algorithm parameters. A join's key columns are computed once per
	// logical join and shared by its physical alternatives: read-only.
	SortCols  []algebra.Column // Sort enforcer order / merge-join left keys / sort-agg order
	RightCols []algebra.Column // merge-join right keys

	// Arm is set on the two alternatives the result cache arms per batch
	// (ArmCacheScan, ArmInvokePartial) and nil on everything Build makes.
	Arm *CacheArm
}

// Weight is the cost multiplier of the expression's inputs: 1, except for
// the body of an Invoke, which is paid once per invocation (§5), and of an
// InvokePartial, which is paid for the residual bindings only.
func (e *PExpr) Weight() float64 { return e.weight }

// IxCol is the index column of an index-based operator: the owner's index
// property for BaseIndex and IndexBuild, the probed input's for IndexSelect
// (its only child) and IndexJoin (its right child).
func (e *PExpr) IxCol() algebra.Column {
	switch e.Kind {
	case IndexSelect:
		return e.Children[0].Prop.Index
	case IndexJoin:
		return e.Children[1].Prop.Index
	}
	return e.Node.Prop.Index
}

// CacheArm is what the result cache armed an expression with.
type CacheArm struct {
	CacheName string    // spooled result table (CacheScanOp)
	CacheTier cost.Tier // storage tier of the spooled table (CacheScanOp)
	// Saving is the estimated per-use saving of the CacheScanOp: the node's
	// cost when it was armed minus the read-back. A plan that reads the
	// table credits it, whether it was just optimized or comes from the
	// session plan cache.
	Saving float64

	// InvokePartial parameters: the cached bindings served by table scans,
	// the residual binding keys recomputed through the body child, and the
	// body's canonical fingerprint, which (with the body child's property)
	// PinPlan uses to revalidate binding-set membership before reusing a
	// cached plan.
	BindScans     []BindScan
	ResidualBinds []string
	BindFP        string
}

// BindScan names one cached binding of a partial Invoke hit: which binding
// (algebra.BindingKey), which spooled table serves it, the storage tier the
// hit was priced at, and its estimated per-use saving (one body invocation
// minus the table's read-back; see CacheArm.Saving).
type BindScan struct {
	Bind   string
	Table  string
	Tier   cost.Tier
	Saving float64
}

// Node is a physical equivalence node: a logical group constrained to a
// physical property.
//
// A node's current computation cost under the materialized set is not a
// field: it lives in the costing state's array over Topo (DAG.CostOf), and
// the operation nodes that read the node as an input are found through the
// DAG's flat arrays (flatDAG), not through the node.
type Node struct {
	ID    int
	LG    *dag.Group
	Prop  Prop
	Exprs []*PExpr
	// Topo is the node's topological number — children before parents —
	// and its position in DAG.Nodes. It is fixed when Build returns, and it
	// is what the costing state indexes its per-node arrays with.
	Topo int
	gi   int32 // row of the DAG's group table; equal exactly when LG is equal

	// MatCost is the additional cost of materializing the node's result
	// when first computed (sequential write; 0 for index nodes whose
	// enforcer already writes data and index).
	MatCost cost.Cost

	// ReuseSeq is the cost of reusing the materialized result by
	// sequential scan (0 for index nodes: probe costs are charged at the
	// consuming operator).
	ReuseSeq cost.Cost

	// Sharable is set by the sharability analysis (§4.1): true when the
	// logical group's maximal degree of sharing exceeds one.
	Sharable bool
}

// Blocks returns the estimated size of the node's result in blocks.
func (n *Node) Blocks(m cost.Model) float64 { return n.LG.Rel.Blocks(m) }

// DAG is the physical AND-OR DAG over a logical DAG.
type DAG struct {
	L     *dag.DAG
	Model cost.Model

	Nodes []*Node // in topological order: Nodes[n.Topo] == n
	Root  *Node
	// QueryRoots are the physical nodes of the individual query roots (any
	// property), in query order.
	QueryRoots []*Node

	// groups is the group table: one row per logical group that has
	// physical nodes, in first-use order. Nodes carry their row (Node.gi);
	// groupRow is the one lookup from the logical side, by GroupID, holding
	// row+1 so that zero means "no row yet".
	groups   []group
	groupRow []int32

	// Operation nodes and their child arrays are carved from chunks: the
	// DAG's nodes live and die together, so an expression needs no
	// allocation of its own.
	exprSlab []PExpr
	kidSlab  []*Node
	numExprs int32 // the DAG's operation nodes, armed ones included
	built    int32 // of them, the ones Build made; arming appends the rest

	flat    flatDAG
	costing costState

	// Scratch is what core's searches keep between searches of the DAG
	// (the degrees of sharing, working arrays); nil until the first. A DAG
	// keeps its plan drafts the same way (NewDraft).
	Scratch any
	drafts  drafts
}

// group is a row of the group table: what the physical layer keeps per
// logical equivalence node rather than per physical node.
type group struct {
	// nodes are the group's physical nodes, one per property asked of it
	// (a handful), in creation order. build finds an existing node by
	// comparing properties over this list.
	nodes []*Node
	// equi[i] holds the sorted equi-join column pairs of the group's i-th
	// logical expression, a join, computed by the first physical node that implements it and
	// shared by the rest.
	equi []joinKeys
}

type joinKeys struct {
	l, r  []algebra.Column
	known bool
}

// Build constructs the physical DAG for a finalized, expanded logical DAG.
func Build(l *dag.DAG, model cost.Model) (*DAG, error) {
	if l.Root == nil {
		return nil, fmt.Errorf("physical: logical DAG not finalized")
	}
	pd := &DAG{L: l, Model: model, groupRow: make([]int32, len(l.Groups))}
	root, err := pd.build(l.Root, AnyProp())
	if err != nil {
		return nil, err
	}
	pd.Root = root
	for _, qr := range l.QueryRoots {
		n, err := pd.build(qr.Find(), AnyProp())
		if err != nil {
			return nil, err
		}
		pd.QueryRoots = append(pd.QueryRoots, n)
	}
	pd.built = pd.numExprs
	pd.assignTopo()
	pd.flatten()
	pd.initCosting()
	return pd, nil
}

// NodesOf returns the physical nodes of a logical group.
func (pd *DAG) NodesOf(g *dag.Group) []*Node {
	if row := pd.groupRow[g.Find().ID]; row > 0 {
		return pd.groups[row-1].nodes
	}
	return nil
}

// siblings returns the physical nodes of n's group, n included.
func (pd *DAG) siblings(n *Node) []*Node { return pd.groups[n.gi].nodes }

// build returns the physical node for (g, prop), creating it and its
// reachable sub-DAG on first use.
func (pd *DAG) build(g *dag.Group, prop Prop) (*Node, error) {
	g = g.Find()
	gi := pd.groupRow[g.ID] - 1
	if gi < 0 {
		gi = int32(len(pd.groups))
		pd.groups = append(pd.groups, group{})
		pd.groupRow[g.ID] = gi + 1
	}
	for _, n := range pd.groups[gi].nodes {
		if n.Prop.Equal(prop) {
			return n, nil
		}
	}
	n := &Node{ID: len(pd.Nodes), LG: g, Prop: prop, gi: gi}
	pd.Nodes = append(pd.Nodes, n)
	// The table may grow while children are built: index it, never hold a
	// row across a recursive call.
	pd.groups[gi].nodes = append(pd.groups[gi].nodes, n)

	for i, le := range g.Exprs {
		if err := pd.addImplementations(n, i, le); err != nil {
			return nil, err
		}
	}
	if err := pd.addEnforcers(n); err != nil {
		return nil, err
	}
	if len(n.Exprs) == 0 {
		return nil, fmt.Errorf("physical: no implementation for group %d with property %s", g.ID, prop)
	}

	blocks := n.Blocks(pd.Model)
	if prop.HasIx {
		n.MatCost = 0
		n.ReuseSeq = 0
	} else {
		n.MatCost = pd.Model.WriteCost(blocks)
		n.ReuseSeq = pd.Model.ScanCost(blocks)
	}
	return n, nil
}

// equiJoinKeys returns the equi-join columns of join expression i of n's
// group, paired and sorted by the left column for canonical merge keys.
func (pd *DAG) equiJoinKeys(n *Node, i int, op algebra.Join, l, r *dag.Group) (lc, rc []algebra.Column) {
	row := &pd.groups[n.gi]
	if row.equi == nil {
		row.equi = make([]joinKeys, len(n.LG.Exprs))
	}
	k := &row.equi[i]
	if !k.known {
		k.l, k.r = op.Pred.EquiJoinColumns(l.Schema, r.Schema)
		sortPairs(k.l, k.r)
		k.known = true
	}
	return k.l, k.r
}

const (
	exprChunk = 128 // operation nodes per slab
	kidChunk  = 256 // child pointers per slab
)

// addExpr wires a physical expression with unit input weight into its owner
// and children.
func (pd *DAG) addExpr(e PExpr, children ...*Node) { pd.addWeighted(e, 1, children...) }

// addWeighted is addExpr for an expression whose inputs are paid for weight
// times over.
func (pd *DAG) addWeighted(e PExpr, weight float64, children ...*Node) {
	if len(pd.exprSlab) == 0 {
		pd.exprSlab = make([]PExpr, exprChunk)
	}
	p := &pd.exprSlab[0]
	pd.exprSlab = pd.exprSlab[1:]
	if len(pd.kidSlab) < len(children) {
		pd.kidSlab = make([]*Node, max(kidChunk, len(children)))
	}
	k := len(children)
	e.Children, pd.kidSlab = pd.kidSlab[:k:k], pd.kidSlab[k:]
	copy(e.Children, children)
	e.weight = weight
	e.id = pd.numExprs
	pd.numExprs++
	*p = e
	p.Node.Exprs = append(p.Node.Exprs, p)
	pd.costing.dirty, pd.flat.stale = true, true
}

// addImplementations adds every applicable algorithm for logical expression
// le, the i-th of its group, to node n (whose property the algorithm's
// delivered property must satisfy).
func (pd *DAG) addImplementations(n *Node, i int, le *dag.Expr) error {
	m := pd.Model
	g := n.LG
	outBlocks := g.Rel.Blocks(m)

	switch op := le.Op.(type) {
	case algebra.Scan:
		t, err := pd.L.Est.Cat.Table(op.Table)
		if err != nil {
			return err
		}
		// Sequential scan: delivers the clustered order if any.
		var delivered Prop
		for _, ix := range t.Indexes {
			if ix.Clustered {
				delivered = SortProp(algebra.Col(op.Alias, ix.Column))
				break
			}
		}
		if delivered.Satisfies(n.Prop) {
			pd.addExpr(PExpr{Kind: SeqScan, LE: le, Node: n, OpCost: m.ScanCost(outBlocks)})
		}
		// Existing base index: zero-cost access point for index consumers.
		if n.Prop.HasIx && n.Prop.Index.Rel == op.Alias {
			if exists, _ := t.IndexOn(n.Prop.Index.Name); exists {
				pd.addExpr(PExpr{Kind: BaseIndex, LE: le, Node: n, OpCost: 0})
			}
		}

	case algebra.Select:
		child := le.Children[0].Find()
		// Filter over a child delivering the required sort order.
		if !n.Prop.HasIx {
			cn, err := pd.build(child, Prop{Sort: n.Prop.Sort})
			if err != nil {
				return err
			}
			pd.addExpr(PExpr{Kind: Filter, LE: le, Node: n, OpCost: m.CPUCost(child.Rel.Blocks(m))}, cn)
		}
		// Index select for a single-column comparison.
		if col, cop, _, ok := singleColOrParam(op.Pred); ok && cop != algebra.NE && !n.Prop.HasIx && len(n.Prop.Sort) == 0 {
			if pd.indexable(child, col) {
				cn, err := pd.build(child, IndexProp(col))
				if err != nil {
					return err
				}
				matchRows := g.Rel.Rows
				clustered := pd.hasClusteredBase(child, col)
				pd.addExpr(PExpr{
					Kind: IndexSelect, LE: le, Node: n,
					OpCost: m.IndexProbeCost(1, matchRows, child.Rel.Width, clustered),
				}, cn)
			}
		}

	case algebra.Join:
		l, r := le.Children[0].Find(), le.Children[1].Find()
		lBlocks, rBlocks := l.Rel.Blocks(m), r.Rel.Blocks(m)
		lc, rc := pd.equiJoinKeys(n, i, op, l, r)
		// Block nested loops: always applicable.
		if !n.Prop.HasIx && len(n.Prop.Sort) == 0 {
			ln, err := pd.build(l, AnyProp())
			if err != nil {
				return err
			}
			rn, err := pd.build(r, AnyProp())
			if err != nil {
				return err
			}
			pd.addExpr(PExpr{
				Kind: BNLJoin, LE: le, Node: n,
				OpCost: m.BlockNLJoinCost(lBlocks, rBlocks, outBlocks, l.Rel.Rows, r.Rel.Rows),
			}, ln, rn)
		}
		// Merge join: requires equijoin columns; delivers sort on left keys.
		if len(lc) > 0 && !n.Prop.HasIx && SortProp(lc...).Satisfies(n.Prop) {
			ln, err := pd.build(l, SortProp(lc...))
			if err != nil {
				return err
			}
			rn, err := pd.build(r, SortProp(rc...))
			if err != nil {
				return err
			}
			pd.addExpr(PExpr{
				Kind: MergeJoin, LE: le, Node: n,
				OpCost:   m.MergeJoinCost(lBlocks, rBlocks, outBlocks, l.Rel.Rows, r.Rel.Rows, g.Rel.Rows),
				SortCols: lc, RightCols: rc,
			}, ln, rn)
		}
		// Index nested loops: probe an index on the first right-side key.
		if len(lc) > 0 && !n.Prop.HasIx && len(n.Prop.Sort) == 0 {
			ixCol := rc[0]
			if pd.indexable(r, ixCol) {
				ln, err := pd.build(l, AnyProp())
				if err != nil {
					return err
				}
				rn, err := pd.build(r, IndexProp(ixCol))
				if err != nil {
					return err
				}
				matchPerProbe := g.Rel.Rows / maxf(1, l.Rel.Rows)
				clustered := pd.hasClusteredBase(r, ixCol)
				pd.addExpr(PExpr{
					Kind: IndexJoin, LE: le, Node: n,
					OpCost:   m.IndexProbeCost(l.Rel.Rows, matchPerProbe, r.Rel.Width, clustered),
					SortCols: lc[:1], RightCols: rc[:1],
				}, ln, rn)
			}
		}

	case algebra.Aggregate:
		child := le.Children[0].Find()
		inBlocks := child.Rel.Blocks(m)
		if len(op.GroupBy) == 0 {
			if !n.Prop.HasIx && len(n.Prop.Sort) == 0 {
				cn, err := pd.build(child, AnyProp())
				if err != nil {
					return err
				}
				pd.addExpr(PExpr{Kind: ScalarAgg, LE: le, Node: n, OpCost: m.CPUCost(inBlocks)}, cn)
			}
			return nil
		}
		gb := canonicalCols(op.GroupBy)
		if !n.Prop.HasIx && SortProp(gb...).Satisfies(n.Prop) {
			cn, err := pd.build(child, SortProp(gb...))
			if err != nil {
				return err
			}
			pd.addExpr(PExpr{
				Kind: SortAgg, LE: le, Node: n,
				OpCost: m.AggregateCost(inBlocks, outBlocks), SortCols: gb,
			}, cn)
		}

	case algebra.Project:
		if !n.Prop.HasIx && len(n.Prop.Sort) == 0 {
			cn, err := pd.build(le.Children[0].Find(), AnyProp())
			if err != nil {
				return err
			}
			pd.addExpr(PExpr{Kind: ProjectOp, LE: le, Node: n,
				OpCost: m.CPUCost(le.Children[0].Find().Rel.Blocks(m))}, cn)
		}

	case algebra.NoOp:
		if n.Prop.IsAny() {
			children := make([]*Node, len(le.Children))
			for i, c := range le.Children {
				cn, err := pd.build(c.Find(), AnyProp())
				if err != nil {
					return err
				}
				children[i] = cn
			}
			pd.addExpr(PExpr{Kind: Batch, LE: le, Node: n, OpCost: 0}, children...)
		}

	case algebra.Invoke:
		if n.Prop.IsAny() {
			cn, err := pd.build(le.Children[0].Find(), AnyProp())
			if err != nil {
				return err
			}
			pd.addWeighted(PExpr{Kind: InvokeOp, LE: le, Node: n, OpCost: 0}, float64(op.Times), cn)
		}

	default:
		return fmt.Errorf("physical: unknown logical operator %T", le.Op)
	}
	return nil
}

// addEnforcers adds the sort enforcer / index-build enforcer for non-Any
// properties.
func (pd *DAG) addEnforcers(n *Node) error {
	if n.Prop.IsAny() {
		return nil
	}
	base, err := pd.build(n.LG, AnyProp())
	if err != nil {
		return err
	}
	m := pd.Model
	blocks := n.Blocks(m)
	if n.Prop.HasIx {
		// Skip the build enforcer when a zero-cost base index access exists.
		for _, e := range n.Exprs {
			if e.Kind == BaseIndex {
				return nil
			}
		}
		pd.addExpr(PExpr{
			Kind: IndexBuildEnf, Node: n,
			OpCost: m.WriteCost(blocks) + m.IndexBuildCost(n.LG.Rel.Rows, 8),
		}, base)
		return nil
	}
	pd.addExpr(PExpr{
		Kind: SortEnf, Node: n,
		OpCost: m.SortCost(blocks, n.LG.Rel.Rows), SortCols: n.Prop.Sort,
	}, base)
	return nil
}

// ArmCacheScan adds a CacheScan access path for a spooled result table to node
// n: a leaf implementation whose only cost is reading the stored result back.
// It is the result cache's pre-pass hook, run on a batch DAG as Build made it
// (or Disarm and Reset restored it) before the search engine: the cached
// result then behaves like an already-materialized node with zero setup cost —
// every algorithm and every what-if prices the armed reuse natively
// through the ordinary min-over-implementations recurrence, so hits need no
// special-casing in costing, extraction or the what-if engine. The caller must
// Recost afterwards (Optimize's entry reset does) before costing anything:
// that pass lays the new operation node into the flat arrays the recurrences
// read (flatDAG). Disarm removes it. tier records which storage tier the
// spooled table lives in; the caller prices scanCost at that tier's read
// constant (cost.Model.TierScanCost), so a warm (disk-backed) hit is armed at
// a strictly higher per-page cost than a RAM hit and the algorithms trade it
// off against recomputation honestly. The executor routes the scan to the
// matching namespace.
func (pd *DAG) ArmCacheScan(n *Node, table string, scanCost cost.Cost, tier cost.Tier) {
	pd.addExpr(PExpr{Kind: CacheScanOp, Node: n, OpCost: scanCost,
		Arm: &CacheArm{CacheName: table, CacheTier: tier, Saving: float64(pd.CostOf(n) - scanCost)}})
}

// ArmInvokePartial adds a partial binding-cache hit alternative to an
// Invoke node n: OpCost is the tier-priced read-back of the cached
// bindings' tables, and the body child is weighted at residualWeight — the
// Invoke's invocation estimate scaled to the residual fraction
// (cost.ResidualInvokeWeight) — so the ordinary weighted-child recurrence
// prices the partial hit as cached-fraction scan + residual-fraction
// recompute and every algorithm trades it against the full Invoke natively.
// le must be the Invoke logical expression (the executor recovers Times
// from it) and body the Invoke's body node at the same property the plain
// InvokeOp uses, so extraction below the node is unchanged.
func (pd *DAG) ArmInvokePartial(n *Node, le *dag.Expr, body *Node, residualWeight float64,
	scanCost cost.Cost, scans []BindScan, residual []string, bindFP string) {
	pd.addWeighted(PExpr{
		Kind: InvokePartial, LE: le, Node: n, OpCost: scanCost,
		Arm: &CacheArm{BindScans: scans, ResidualBinds: residual, BindFP: bindFP},
	}, residualWeight, body)
}

// Disarm strips what the result cache armed, the tail arming appended to its
// owners' lists, so the next Reset lays the DAG out and costs it as Build did.
// Stripped slab slots are never reused: a cached plan may point at one.
func (pd *DAG) Disarm() {
	for t := 0; pd.numExprs > pd.built; t++ {
		n := pd.Nodes[t]
		k := len(n.Exprs)
		for n.Exprs[k-1].Arm != nil { // Build gave every node an operation node
			k--
		}
		clear(n.Exprs[k:])
		pd.numExprs -= int32(len(n.Exprs) - k)
		n.Exprs = n.Exprs[:k]
		pd.costing.dirty, pd.flat.stale = true, true
	}
}

// indexable reports whether an index on col can exist for group g: either a
// base table with a catalog index on col, or any group at all (a temporary
// index can be built on a materialized result, §5). Parameter-dependent
// groups cannot be materialized, hence cannot carry a temp index, unless a
// base index already exists.
func (pd *DAG) indexable(g *dag.Group, col algebra.Column) bool {
	if !g.Schema.Has(col) {
		return false
	}
	if pd.baseIndexOn(g, col) {
		return true
	}
	return !g.ParamDep
}

// baseIndexOn reports whether g is a base-scan group whose table has a
// catalog index on col.
func (pd *DAG) baseIndexOn(g *dag.Group, col algebra.Column) bool {
	for _, e := range g.Exprs {
		sc, ok := e.Op.(algebra.Scan)
		if !ok || sc.Alias != col.Rel {
			continue
		}
		if t, err := pd.L.Est.Cat.Table(sc.Table); err == nil {
			if exists, _ := t.IndexOn(col.Name); exists {
				return true
			}
		}
	}
	return false
}

// hasClusteredBase reports whether g is a base-scan group with a clustered
// catalog index on col.
func (pd *DAG) hasClusteredBase(g *dag.Group, col algebra.Column) bool {
	for _, e := range g.Exprs {
		sc, ok := e.Op.(algebra.Scan)
		if !ok || sc.Alias != col.Rel {
			continue
		}
		if t, err := pd.L.Est.Cat.Table(sc.Table); err == nil {
			if exists, clustered := t.IndexOn(col.Name); exists && clustered {
				return true
			}
		}
	}
	return false
}

// assignTopo numbers nodes so that every expression's children precede its
// owner, via iterative post-order DFS over all nodes.
func (pd *DAG) assignTopo() {
	visited := make([]bool, len(pd.Nodes)) // by Node.ID, the creation order
	topo := 0
	order := make([]*Node, 0, len(pd.Nodes))
	var visit func(n *Node)
	visit = func(n *Node) {
		if visited[n.ID] {
			return
		}
		visited[n.ID] = true
		for _, e := range n.Exprs {
			for _, c := range e.Children {
				visit(c)
			}
		}
		n.Topo = topo
		topo++
		order = append(order, n)
	}
	// Visit from the root first, then any stragglers (nodes built for
	// query roots only).
	if pd.Root != nil {
		visit(pd.Root)
	}
	for _, n := range pd.Nodes {
		visit(n)
	}
	pd.Nodes = order
}

// flatDAG is the DAG as the costing recurrences (costing.go) read it, laid
// out over the dense identities when Build returns:
//
//   - operation node x (PExpr.id) costs exprs[x].op plus exprs[x].w times
//     each of its inputs, the nodes at topological numbers
//     kids[exprs[x].kidLo:exprs[x+1].kidLo], and is owned by the node at
//     exprs[x].owner;
//   - node t (Node.Topo) is read as an input by the operation nodes
//     parents[nodes[t].parLo:nodes[t+1].parLo], and is slot nodes[t].slot of
//     group row nodes[t].gi;
//   - a set of a group's nodes is a bitmask over their slots, the
//     nodes[t].words words from nodes[t].matLo of an array of groupWords
//     over all groups (the costing state's materialized set), and the
//     nodes of t's group whose property satisfies t's are the mask at
//     sat[nodes[t].satLo:].
//
// The last entry of exprs and of nodes only closes the range before it.
// Arming adds operation nodes and Disarm removes them; the next Recost lays
// the DAG out again (stale, flatten). Nodes and groups never change.
type flatDAG struct {
	exprs      []flatExpr
	kids       []int32
	nodes      []flatNode
	parents    []int32
	sat        []uint64
	groupWords int32
	stale      bool // operation nodes were added or removed since the layout
}

type flatExpr struct {
	op    cost.Cost
	w     float64
	owner int32
	kidLo int32
}

type flatNode struct {
	reuse        cost.Cost // Node.ReuseSeq
	gi, slot     int32
	parLo        int32
	satLo        int32
	matLo, words int32
}

// flatten lays out pd's structure as flatDAG, reusing the arrays of an
// earlier layout where they are large enough. It numbers the operation nodes
// in the order it lays them out — by owner in topological order, then as
// the owner lists them — so a propagation, which climbs the DAG in
// topological order, reads the arrays over PExpr.id from front to back.
func (pd *DAG) flatten() {
	f := &pd.flat
	f.stale = false
	if f.nodes == nil {
		f.layoutGroups(pd)
	}
	for t := range f.nodes {
		f.nodes[t].parLo = 0
	}
	kids := 0
	for _, n := range pd.Nodes {
		for _, e := range n.Exprs {
			kids += len(e.Children)
			for _, c := range e.Children {
				f.nodes[c.Topo].parLo++
			}
		}
	}
	// Each node's count of readers becomes the end of its range of parents,
	// which placing the readers below decrements to the range's start.
	parents := int32(0)
	for t := range f.nodes {
		parents += f.nodes[t].parLo
		f.nodes[t].parLo = parents
	}
	f.exprs = resize(f.exprs, int(pd.numExprs)+1)
	f.kids = resize(f.kids, kids)
	f.parents = resize(f.parents, int(parents))
	x, k := int32(0), int32(0)
	for t, n := range pd.Nodes {
		for _, e := range n.Exprs {
			e.id = x
			f.exprs[x] = flatExpr{op: e.OpCost, w: e.weight, owner: int32(t), kidLo: k}
			for _, c := range e.Children {
				f.kids[k] = int32(c.Topo)
				k++
			}
			x++
		}
	}
	f.exprs[x] = flatExpr{kidLo: k}
	for x--; x >= 0; x-- {
		for _, c := range f.kids[f.exprs[x].kidLo:f.exprs[x+1].kidLo] {
			f.nodes[c].parLo--
			f.parents[f.nodes[c].parLo] = x
		}
	}
}

// layoutGroups fills what arming never changes: each node's group row,
// slot and reuse cost, the groups' bitmask words and the satisfied-by masks.
func (f *flatDAG) layoutGroups(pd *DAG) {
	f.nodes = make([]flatNode, len(pd.Nodes)+1)
	satWords := 0
	for _, row := range pd.groups {
		satWords += (len(row.nodes) + 63) / 64 * len(row.nodes)
	}
	f.sat = make([]uint64, satWords)
	satLo := int32(0)
	for g, row := range pd.groups {
		words := int32(len(row.nodes)+63) / 64
		for slot, c := range row.nodes {
			f.nodes[c.Topo] = flatNode{reuse: c.ReuseSeq, gi: int32(g), slot: int32(slot), satLo: satLo,
				matLo: f.groupWords, words: words}
			for i, m := range row.nodes {
				if m.Prop.Satisfies(c.Prop) {
					f.sat[satLo+int32(i/64)] |= 1 << (i % 64)
				}
			}
			satLo += words
		}
		f.groupWords += words
	}
}

// serves reports whether node m, of node c's group, can serve c's property.
func (f *flatDAG) serves(m, c int) bool {
	slot := f.nodes[m].slot
	return f.sat[f.nodes[c].satLo+slot/64]&(1<<(slot%64)) != 0
}

// resize returns s with length n, reallocated only when its capacity is
// short. The contents are the caller's to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// singleColOrParam matches predicates of the form col op (const|param).
func singleColOrParam(p algebra.Predicate) (algebra.Column, algebra.CmpOp, algebra.Scalar, bool) {
	if len(p.Conj) != 1 || len(p.Conj[0].Disj) != 1 {
		return algebra.Column{}, 0, nil, false
	}
	c := p.Conj[0].Disj[0]
	if l, ok := c.L.(algebra.ColExpr); ok {
		switch c.R.(type) {
		case algebra.ConstExpr, algebra.ParamExpr:
			return l.C, c.Op, c.R, true
		}
	}
	if r, ok := c.R.(algebra.ColExpr); ok {
		switch c.L.(type) {
		case algebra.ConstExpr, algebra.ParamExpr:
			return r.C, c.Op.Flip(), c.L, true
		}
	}
	return algebra.Column{}, 0, nil, false
}

// sortPairs sorts the paired key columns by the left column for canonical
// merge keys.
func sortPairs(lc, rc []algebra.Column) {
	sort.Sort(&pairSorter{lc, rc})
}

type pairSorter struct{ l, r []algebra.Column }

func (p *pairSorter) Len() int           { return len(p.l) }
func (p *pairSorter) Less(i, j int) bool { return p.l[i].Less(p.l[j]) }
func (p *pairSorter) Swap(i, j int) {
	p.l[i], p.l[j] = p.l[j], p.l[i]
	p.r[i], p.r[j] = p.r[j], p.r[i]
}

// canonicalCols returns a sorted copy of cols.
func canonicalCols(cols []algebra.Column) []algebra.Column {
	out := append([]algebra.Column(nil), cols...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

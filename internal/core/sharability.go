package core

import (
	"mqo/internal/algebra"
	"mqo/internal/dag"
	"mqo/internal/physical"
)

// ComputeSharability implements the paper's §4.1: for every logical
// equivalence node z, the degree of sharing E[root][z] — the maximum number
// of occurrences of z in any plan tree of the expanded DAG — computed by
// the Sum (operation nodes) / Max (equivalence nodes) recurrences, one z at
// a time (which keeps space linear, as the paper suggests). Invocation
// counts of nested queries multiply the degree (§5). It returns the degree
// per logical group and marks physical nodes of groups with degree > 1 (and
// not parameter-dependent) as Sharable.
//
// Note that a node can be sharable even with a single parent operation
// node, when that parent itself occurs multiple times in some plan tree
// (the paper's e1/e2/e3 example in §3.2); the bottom-up product over the
// recurrences accounts for this.
func ComputeSharability(pd *physical.DAG) map[*dag.Group]float64 {
	degrees := degreesOfSharing(pd)
	markSharable(pd, degrees)
	return degrees
}

// memoSharability is ComputeSharability for a search: the degrees depend
// only on the logical DAG and the root, both fixed when the physical DAG is
// built, so the DAG's first search computes them and keeps them in its
// scratch for every later one. The flags are set on every call, because the
// sharability ablation (MarkAllSharable) overwrites them.
func memoSharability(pd *physical.DAG) map[*dag.Group]float64 {
	s := scratchOf(pd)
	if s.degrees == nil {
		s.degrees = degreesOfSharing(pd)
	}
	markSharable(pd, s.degrees)
	return s.degrees
}

// markSharable sets every node's Sharable flag from its group's degree.
func markSharable(pd *physical.DAG, degrees map[*dag.Group]float64) {
	for _, n := range pd.Nodes {
		n.Sharable = degrees[n.LG] > 1 && !n.LG.ParamDep
	}
}

// degreesOfSharing runs the §4.1 analysis: the degree of sharing of every
// logical group below pd's root, one pass of the recurrences per group, all
// in one scratch array.
func degreesOfSharing(pd *physical.DAG) map[*dag.Group]float64 {
	order := logicalTopoOrder(pd.L, pd.Root.LG)
	f := flatten(pd.L, order)
	scratch := make([]float64, len(order))
	zs := order[:len(order)-1] // every group but the root, which comes last
	degrees := make(map[*dag.Group]float64, len(zs))
	for z, g := range zs {
		degrees[g] = f.degreeOfSharing(z, scratch)
	}
	return degrees
}

// flatDAG is the logical DAG as the §4.1 recurrences read it, laid out by
// topological position (children before parents, the root last): group g's
// operation nodes are exprs[groupEnd[g-1]:groupEnd[g]], and operation node
// x multiplies its inputs by weight[x] and has the groups at positions
// kids[exprEnd[x-1]:exprEnd[x]] as inputs. The DAG does not change during
// the analysis, so it is flattened once and every z pass is array reads.
type flatDAG struct {
	groupEnd []int32
	exprEnd  []int32
	weight   []float64
	kids     []int32
}

// flatten lays out the groups of order, which must be closed under inputs.
func flatten(l *dag.DAG, order []*dag.Group) flatDAG {
	pos := make([]int32, len(l.Groups)) // by GroupID
	exprs, kids := 0, 0
	for i, g := range order {
		pos[g.ID] = int32(i)
		exprs += len(g.Exprs)
		for _, ex := range g.Exprs {
			kids += len(ex.Children)
		}
	}
	f := flatDAG{
		groupEnd: make([]int32, 0, len(order)),
		exprEnd:  make([]int32, 0, exprs),
		weight:   make([]float64, 0, exprs),
		kids:     make([]int32, 0, kids),
	}
	for _, g := range order {
		for _, ex := range g.Exprs {
			w := 1.0
			if iv, ok := ex.Op.(algebra.Invoke); ok {
				w = float64(iv.Times)
			}
			for _, c := range ex.Children {
				f.kids = append(f.kids, pos[c.Find().ID])
			}
			f.weight = append(f.weight, w)
			f.exprEnd = append(f.exprEnd, int32(len(f.kids)))
		}
		f.groupEnd = append(f.groupEnd, int32(len(f.exprEnd)))
	}
	return f
}

// degreeOfSharing runs one pass of the §4.1 recurrences — E[z] = 1, Sum over
// an operation node's inputs, Max over a group's operation nodes — for the
// group at position z, in (and overwriting) the caller's scratch array, and
// returns the root's degree. Groups before z in topological order cannot
// have z below them, so their degree is zero without being computed.
func (f *flatDAG) degreeOfSharing(z int, e []float64) float64 {
	clear(e[:z])
	e[z] = 1
	x, k := f.groupEnd[z], int32(0)
	if x > 0 {
		k = f.exprEnd[x-1]
	}
	for g := z + 1; g < len(e); g++ {
		best := 0.0
		for end := f.groupEnd[g]; x < end; x++ {
			w, sum := f.weight[x], 0.0
			for _, c := range f.kids[k:f.exprEnd[x]] {
				sum += w * e[c]
			}
			k = f.exprEnd[x]
			if sum > best {
				best = sum
			}
		}
		e[g] = best
	}
	return e[len(e)-1]
}

// MarkAllSharable marks every non-parameter-dependent node sharable,
// implementing the §6.3 sharability ablation ("every node is assumed to be
// potentially sharable").
func MarkAllSharable(pd *physical.DAG) {
	for _, n := range pd.Nodes {
		n.Sharable = !n.LG.ParamDep
	}
}

// logicalTopoOrder returns the logical groups reachable from root with
// children before parents.
func logicalTopoOrder(l *dag.DAG, root *dag.Group) []*dag.Group {
	var order []*dag.Group
	seen := make([]bool, len(l.Groups)) // by GroupID
	var visit func(g *dag.Group)
	visit = func(g *dag.Group) {
		g = g.Find()
		if seen[g.ID] {
			return
		}
		seen[g.ID] = true
		for _, e := range g.Exprs {
			for _, c := range e.Children {
				visit(c)
			}
		}
		order = append(order, g)
	}
	visit(root)
	return order
}

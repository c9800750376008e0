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
// not parameter-dependent) as Sharable. The worker count is auto-tuned.
func ComputeSharability(pd *physical.DAG) map[*dag.Group]float64 {
	return ComputeSharabilityN(pd, 0)
}

// ComputeSharabilityN is ComputeSharability with an explicit parallelism
// knob (the Options.Parallelism convention: 0 auto-tunes, 1 is serial,
// n > 1 fans out). The per-z passes are independent — each reads only the
// immutable logical DAG and writes its own scratch map — so they fan out
// one logical group per worker; the resulting degrees are identical at
// every worker count.
//
// Note that a node can be sharable even with a single parent operation
// node, when that parent itself occurs multiple times in some plan tree
// (the paper's e1/e2/e3 example in §3.2); the bottom-up product over the
// recurrences accounts for this.
func ComputeSharabilityN(pd *physical.DAG, parallelism int) map[*dag.Group]float64 {
	root := pd.Root.LG
	order := logicalTopoOrder(root)
	zs := make([]*dag.Group, 0, len(order))
	for _, z := range order {
		if z != root {
			zs = append(zs, z)
		}
	}

	workers := resolveWorkers(sharabilityCrossover, parallelism, len(zs)*len(order))
	if workers > len(zs) {
		workers = len(zs)
	}
	if workers < 1 {
		workers = 1
	}

	// degs[i] is z_i's degree; written by exactly one worker each, read
	// only after the join. Scratch E maps are per-worker, reused across
	// that worker's passes.
	degs := make([]float64, len(zs))
	scratch := make([]map[*dag.Group]float64, workers)
	_ = parallelFor(nil, workers, len(zs), func(w, i int) {
		e := scratch[w]
		if e == nil {
			e = make(map[*dag.Group]float64, len(order))
			scratch[w] = e
		}
		degs[i] = degreeOfSharing(order, zs[i], root, e)
	})

	degrees := make(map[*dag.Group]float64, len(zs))
	for i, z := range zs {
		degrees[z] = degs[i]
	}
	for _, n := range pd.Nodes {
		n.Sharable = degrees[n.LG] > 1 && !n.LG.ParamDep
	}
	return degrees
}

// degreeOfSharing runs one z pass of the §4.1 recurrences over the groups
// in topological order, using (and overwriting) the caller's scratch map.
func degreeOfSharing(order []*dag.Group, z, root *dag.Group, e map[*dag.Group]float64) float64 {
	for _, g := range order {
		if g == z {
			e[g] = 1
			continue
		}
		best := 0.0
		for _, ex := range g.Exprs {
			w := 1.0
			if iv, ok := ex.Op.(algebra.Invoke); ok {
				w = float64(iv.Times)
			}
			sum := 0.0
			for _, c := range ex.Children {
				sum += w * e[c.Find()]
			}
			if sum > best {
				best = sum
			}
		}
		e[g] = best
	}
	return e[root]
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
func logicalTopoOrder(root *dag.Group) []*dag.Group {
	var order []*dag.Group
	seen := map[*dag.Group]bool{}
	var visit func(g *dag.Group)
	visit = func(g *dag.Group) {
		g = g.Find()
		if seen[g] {
			return
		}
		seen[g] = true
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

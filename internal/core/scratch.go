package core

import (
	"slices"

	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/physical"
)

// scratch is what the searches keep on the DAG between them
// (physical.DAG.Scratch): a DAG is searched by one goroutine at a time. Every
// array is resized to what the search at hand needs and reuses its storage
// when it is large enough, so it grows with the plans and candidate sets of
// the DAG's searches, and a DAG searched once allocates what that search
// needs.
type scratch struct {
	// degrees is the §4.1 degree of sharing of every logical group below
	// the root, nil until the DAG's first greedy search (memoSharability).
	degrees map[*dag.Group]float64

	// Greedy: the candidate set, the monotonic loop's heap entries and heap,
	// a wave's benefits, and the exhaustive and space-budget loops'
	// remaining candidates and rates.
	candidates []*physical.Node
	items      []benefitItem
	heap       benefitHeap
	bens       []cost.Cost
	remaining  []*physical.Node
	rates      []float64

	// Volcano-SH (also the second phase of each Volcano-RU order pass).
	sh shState

	// Volcano-RU: the query order, each query's plan node, and each plan
	// node's use count by PlanNode.Index.
	order      []int
	queryPlans []*physical.PlanNode
	count      []int
}

// scratchOf returns the DAG's search scratch, made on its first search.
func scratchOf(pd *physical.DAG) *scratch {
	s, _ := pd.Scratch.(*scratch)
	if s == nil {
		s = &scratch{}
		pd.Scratch = s
	}
	return s
}

// extend returns s lengthened to n, the new elements zero, in s's storage
// when it has the room; extend(s[:0], n) is n zeros.
func extend[T any](s []T, n int) []T {
	k := len(s)
	s = slices.Grow(s, n-k)[:n]
	clear(s[k:])
	return s
}

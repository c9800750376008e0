package core

import (
	"container/heap"
	"context"
	"slices"

	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/obs"
	"mqo/internal/physical"
)

// optimizeGreedy implements the paper's Figure 4 greedy heuristic with the
// three efficiency optimizations of §4:
//
//  1. only sharable nodes are candidates (§4.1), found by the sharability
//     analysis;
//  2. benefits are computed with incremental cost update (§4.2), as
//     what-ifs on the DAG that roll back (physical.DAG.WhatIfBenefit);
//  3. the monotonicity heuristic maintains a heap of benefit upper bounds
//     and recomputes only the top candidates' benefits (§4.3).
//
// As in Figure 4, each round commits the single candidate of largest
// benefit and then recomputes. Each §4 optimization can be disabled through
// GreedyOptions for the §6.3 ablation experiments. All selection steps
// break ties deterministically — larger benefit first, then smaller
// topological number.
func optimizeGreedy(ctx context.Context, pd *physical.DAG, opts Options) (*Result, error) {
	// Honour cancellation before the sharability analysis and candidate
	// scan: no stats work should happen — let alone leak — for a run that
	// is already dead.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	track := obs.TrackFrom(ctx)
	stats := Stats{}
	s := scratchOf(pd)

	sharePhase := startPhase(&stats, track, OptPhaseSharability)
	var degrees map[*dag.Group]float64
	if opts.Greedy.DisableSharability {
		MarkAllSharable(pd)
	} else {
		degrees = memoSharability(pd)
	}
	sharePhase.end()

	candPhase := startPhase(&stats, track, OptPhaseCandidates)
	candidates := s.candidates[:0]
	for _, n := range pd.Nodes {
		if n.Sharable {
			stats.SharableNodes++
		}
		if !candidateNode(pd, n) {
			continue
		}
		candidates = append(candidates, n)
	}
	s.candidates = candidates
	stats.Candidates = len(candidates)
	candPhase.end()

	e := &benefitEval{pd: pd, s: s, recost: opts.Greedy.DisableIncremental}

	wavePhase := startPhase(&stats, track, OptPhaseWaves)
	var (
		chosen []*physical.Node
		err    error
	)
	switch {
	case opts.Greedy.SpaceBudgetBytes > 0:
		chosen, err = greedySpaceBudget(ctx, pd, candidates, e, opts.Greedy.SpaceBudgetBytes)
	case opts.Greedy.DisableMonotonicity:
		chosen, err = greedyExhaustive(ctx, pd, candidates, e)
	default:
		chosen, err = greedyMonotonic(ctx, pd, candidates, degrees, e)
	}
	wavePhase.end()
	if err != nil {
		return nil, err
	}

	commitPhase := startPhase(&stats, track, OptPhaseCommit)
	res := &Result{Cost: pd.TotalCost(), Plan: pd.ExtractPlan(), Materialized: chosen}
	commitPhase.end()
	stats.BenefitRecomputations = e.recomps
	stats.EvalWaves = e.waves
	res.Stats = stats
	return res, nil
}

// candidateNode reports whether n may enter the greedy candidate set Y:
// sharable, not parameter-dependent, not the batch root, and not already
// free (a base-index access point costs nothing to begin with).
func candidateNode(pd *physical.DAG, n *physical.Node) bool {
	return n.Sharable && !n.LG.ParamDep && n != pd.Root && pd.CostOf(n) > 0
}

// benefitEval computes candidates' benefits for one greedy run, counting
// the work for Stats.
type benefitEval struct {
	pd *physical.DAG
	s  *scratch
	// recost is the §6.3 DisableIncremental ablation: re-cost the DAG from
	// scratch for every benefit instead of a what-if.
	recost  bool
	recomps int64 // benefit recomputations
	waves   int64 // non-empty evaluation waves
}

// evalWave computes the benefits of nodes against the DAG's current state,
// in input order, into an array the next wave reuses. The context is
// consulted before the wave and before each benefit; once it is done,
// evalWave returns ctx.Err().
func (e *benefitEval) evalWave(ctx context.Context, nodes []*physical.Node) ([]cost.Cost, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	e.waves++
	base := e.pd.TotalCost()
	out := extend(e.s.bens[:0], len(nodes))
	e.s.bens = out
	for i, n := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.recomps++
		if e.recost {
			out[i] = base - e.pd.BestCostWith(append(e.pd.MaterializedSet(), n))
		} else {
			out[i] = e.pd.WhatIfBenefit(n)
		}
	}
	return out, nil
}

// argmax returns the index of the largest score, the first of equals.
// Candidates are kept in topological order, so ties resolve to the smaller
// topological number — the deterministic pick rule.
func argmax(scores []float64) int {
	b := 0
	for i, s := range scores {
		if s > scores[b] {
			b = i
		}
	}
	return b
}

// greedySpaceBudget implements the paper's §8 space-constrained variant:
// candidates are picked in order of benefit per unit of materialized-result
// space until the temporary-storage budget is exhausted. Every remaining
// candidate's benefit is recomputed each wave.
func greedySpaceBudget(ctx context.Context, pd *physical.DAG, candidates []*physical.Node,
	e *benefitEval, budget int64) ([]*physical.Node, error) {

	sizeOf := func(n *physical.Node) int64 {
		s := int64(n.LG.Rel.Blocks(pd.Model)) * pd.Model.BlockSize
		if s < pd.Model.BlockSize {
			s = pd.Model.BlockSize
		}
		return s
	}
	remaining := append(e.s.remaining[:0], candidates...)
	var chosen []*physical.Node
	used := int64(0)
	for len(remaining) > 0 {
		// Only candidates that still fit need benefits; one that stops
		// fitting never fits again (consumption only grows).
		remaining = slices.DeleteFunc(remaining, func(n *physical.Node) bool { return used+sizeOf(n) > budget })
		bens, err := e.evalWave(ctx, remaining)
		if err != nil {
			return nil, err
		}
		if len(remaining) == 0 {
			break
		}
		rates := extend(e.s.rates[:0], len(remaining))
		e.s.rates = rates
		for i, n := range remaining {
			if bens[i] > 0 {
				rates[i] = bens[i] / float64(sizeOf(n))
			}
		}
		i := argmax(rates)
		if bens[i] <= 0 {
			break
		}
		n := remaining[i]
		pd.SetMaterialized(n, true)
		chosen = append(chosen, n)
		used += sizeOf(n)
		remaining = slices.Delete(remaining, i, i+1)
	}
	e.s.remaining = remaining
	return chosen, nil
}

// greedyExhaustive is Figure 4 without the monotonicity heuristic: every
// remaining candidate's benefit is recomputed each wave, and the best one
// is committed.
func greedyExhaustive(ctx context.Context, pd *physical.DAG, candidates []*physical.Node, e *benefitEval) ([]*physical.Node, error) {
	remaining := append(e.s.remaining[:0], candidates...)
	var chosen []*physical.Node
	for len(remaining) > 0 {
		bens, err := e.evalWave(ctx, remaining)
		if err != nil {
			return nil, err
		}
		i := argmax(bens)
		if bens[i] <= 0 {
			break
		}
		pd.SetMaterialized(remaining[i], true)
		chosen = append(chosen, remaining[i])
		remaining = slices.Delete(remaining, i, i+1)
	}
	e.s.remaining = remaining
	return chosen, nil
}

// benefitItem is a max-heap entry: a candidate with its benefit upper bound.
type benefitItem struct {
	n *physical.Node
	// ub is an upper bound on the candidate's current benefit (exact when
	// version matches the chooser's version).
	ub      cost.Cost
	version int
}

// itemPrecedes is the deterministic total order of the monotonic heap:
// larger bound first, topological number as the tie-break. Topo numbers
// are unique, so the order is strict and heap contents never tie.
func itemPrecedes(a, b *benefitItem) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	return a.n.Topo < b.n.Topo
}

type benefitHeap []*benefitItem

func (h benefitHeap) Len() int            { return len(h) }
func (h benefitHeap) Less(i, j int) bool  { return itemPrecedes(h[i], h[j]) }
func (h benefitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *benefitHeap) Push(x interface{}) { *h = append(*h, x.(*benefitItem)) }
func (h *benefitHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// speculationWidth is how many stale heap entries the monotonic loop
// recomputes per wave. Figure 4's schedule recomputes the top entry alone
// (width 1: 214 benefit recomputations on BQ5); the loop recomputes the
// stale entries nearest the top eight at a time (216 on BQ5), and the
// Figure 10 counters, TestFigure10Counters' pins among them, are this
// schedule's. The once-per-version rule bounds the extra work.
const speculationWidth = 8

// greedyMonotonic is Figure 4 with the §4.3 monotonicity heuristic: a heap
// orders candidates by benefit upper bound (initially cost × degree of
// sharing); stale top entries are recomputed — up to speculationWidth per
// wave — and a candidate is chosen only when its exact benefit still tops
// the heap, so most candidates are never recomputed. Committing a pick
// stales every entry (version bump).
func greedyMonotonic(ctx context.Context, pd *physical.DAG, candidates []*physical.Node, degrees map[*dag.Group]float64,
	e *benefitEval) ([]*physical.Node, error) {

	s := e.s
	// The entries live in one array the heap points into, made before the
	// first push and never grown while the heap holds them.
	s.items = extend(s.items[:0], len(candidates))
	h := &s.heap
	*h = slices.Grow((*h)[:0], len(candidates))
	for i, n := range candidates {
		deg := 2.0
		if degrees != nil {
			deg = degrees[n.LG]
		} else if p := float64(pd.NumParents(n)); p > deg {
			deg = p
		}
		s.items[i] = benefitItem{n: n, ub: pd.CostOf(n) * deg, version: -1}
		heap.Push(h, &s.items[i])
	}

	var chosen []*physical.Node
	version := 0
	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if (*h)[0].version == version {
			// The top entry's benefit is exact and (given monotonicity)
			// dominates every other upper bound: it is the true maximum.
			top := heap.Pop(h).(*benefitItem)
			if top.ub <= 0 {
				break // maximum benefit is non-positive: done
			}
			pd.SetMaterialized(top.n, true)
			chosen = append(chosen, top.n)
			version++
			continue
		}
		// Speculatively recompute the stale entries nearest the top. An
		// exact entry bounds everything below it, so stop there.
		var poppedA [speculationWidth + 1]*benefitItem
		var staleA [speculationWidth]*benefitItem
		var nodesA [speculationWidth]*physical.Node
		popped, stale, nodes := poppedA[:0], staleA[:0], nodesA[:0]
		for h.Len() > 0 && len(stale) < speculationWidth {
			it := heap.Pop(h).(*benefitItem)
			popped = append(popped, it)
			if it.version == version {
				break
			}
			stale = append(stale, it)
			nodes = append(nodes, it.n)
		}
		bens, err := e.evalWave(ctx, nodes)
		if err != nil {
			return nil, err
		}
		for i, it := range stale {
			it.ub = bens[i]
			it.version = version
		}
		for _, it := range popped {
			heap.Push(h, it)
		}
	}
	return chosen, nil
}

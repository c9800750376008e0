// Package core implements the paper's multi-query optimization algorithms
// over the physical AND-OR DAG: the basic Volcano baseline (§3.1), the
// Volcano-SH heuristic (§3.2), the Volcano-RU heuristic (§3.3) and the
// Greedy heuristic with its three efficiency optimizations — sharability
// analysis (§4.1), incremental cost update (§4.2) and the monotonicity
// heuristic (§4.3).
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mqo/internal/algebra"
	"mqo/internal/catalog"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/physical"
)

// Algorithm selects an optimization strategy.
type Algorithm int

// The four strategies compared in the paper's §6.
const (
	Volcano Algorithm = iota
	VolcanoSH
	VolcanoRU
	Greedy
)

// String names the algorithm as in the paper's figures. Out-of-range
// values render as "Algorithm(n)" instead of panicking.
func (a Algorithm) String() string {
	names := [...]string{"Volcano", "Volcano-SH", "Volcano-RU", "Greedy"}
	if a < 0 || int(a) >= len(names) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return names[a]
}

// Algorithms lists all strategies in presentation order.
func Algorithms() []Algorithm { return []Algorithm{Volcano, VolcanoSH, VolcanoRU, Greedy} }

// ParseAlgorithm maps a command-line name to an Algorithm. Accepted names
// (case-insensitive): volcano, volcano-sh, sh, volcano-ru, ru, greedy.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "volcano":
		return Volcano, nil
	case "volcano-sh", "sh":
		return VolcanoSH, nil
	case "volcano-ru", "ru":
		return VolcanoRU, nil
	case "greedy":
		return Greedy, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", name)
}

// GreedyOptions are the ablation switches of §6.3.
type GreedyOptions struct {
	// DisableMonotonicity recomputes every candidate's benefit each
	// iteration instead of using the benefit upper-bound heap.
	DisableMonotonicity bool
	// DisableSharability considers every node a candidate instead of only
	// sharable ones.
	DisableSharability bool
	// DisableIncremental recomputes bestcost from scratch per benefit
	// computation instead of using incremental cost update.
	DisableIncremental bool
	// SpaceBudgetBytes, when positive, bounds the total size of
	// materialized results: candidates are chosen by benefit per unit of
	// space until the budget is exhausted (the paper's §8 extension).
	SpaceBudgetBytes int64
}

// Options configures Optimize.
type Options struct {
	Greedy GreedyOptions
}

// Stats carries instrumentation from one optimization run.
type Stats struct {
	OptTime time.Duration
	// Greedy instrumentation (Figure 10 and §6.3):
	CostPropagations      int64
	CostRecomputations    int64
	BenefitRecomputations int64
	Candidates            int
	SharableNodes         int
	DAGGroups             int
	DAGExprs              int
	PhysNodes             int
	// DAGDerivations counts the operation nodes building the logical DAG
	// asked its expression table for, DAGDuplicates those the table
	// already held: their ratio is the share of expansion spent
	// rediscovering known expressions.
	DAGDerivations int
	DAGDuplicates  int
	// EvalWaves counts benefit-evaluation waves: the batches of candidates
	// whose benefits one greedy round recomputes.
	EvalWaves int64
	// RUPromotions counts the reuse promotions Volcano-RU's winning order
	// pass committed.
	RUPromotions int64
	// Phases breaks OptTime down by search phase (OptPhaseSharability,
	// OptPhaseCandidates, OptPhaseWaves, OptPhaseCommit). Populated by the greedy
	// algorithm; nil for the Volcano variants.
	Phases map[string]time.Duration
}

// Result is the outcome of optimizing a batch.
//
// A Result may be shared between goroutines (the session plan cache hands
// cached results to every hitter): treat the Plan's nodes and the
// Materialized entries as immutable.
type Result struct {
	Algorithm    Algorithm
	Cost         cost.Cost
	Plan         *physical.Plan
	Materialized []*physical.Node
	// NoShareCost is the estimated cost of the batch's best no-sharing
	// plan (the basic Volcano baseline), captured on the same DAG before
	// the selected algorithm ran. NoShareCost - Cost is the estimated
	// benefit multi-query optimization won for this batch.
	NoShareCost cost.Cost
	Stats       Stats
}

// BuildDAG builds a batch's logical DAG (BuildLogical) and the physical DAG
// over it. Every algorithm can then run on the returned DAG in turn, as in
// the paper's implementation: Optimize resets its costing state first, and a
// Result it returned stays valid when a later run rewrites the DAG's node
// costs, which are search scratch (the plan carries PlanNode.Cost). The
// session's memo keeps a physical DAG per composition for exactly that: one
// call at a time runs on it. Any number of goroutines can build physical
// DAGs of their own over one logical DAG (physical.Build).
func BuildDAG(cat *catalog.Catalog, model cost.Model, queries []*algebra.Tree) (*physical.DAG, error) {
	ld, err := BuildLogical(cat, queries)
	if err != nil {
		return nil, err
	}
	return physical.Build(ld, model)
}

// BuildLogical constructs the expanded logical DAG for a batch of queries:
// insert, expand, subsume, expand again, finalize the pseudo-root. The DAG
// it returns is read-only (see dag.DAG) and depends on the catalog and the
// queries' trees alone.
func BuildLogical(cat *catalog.Catalog, queries []*algebra.Tree) (*dag.DAG, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	ld := dag.New(cost.Estimator{Cat: cat})
	for _, q := range queries {
		if _, err := ld.AddQuery(q); err != nil {
			return nil, err
		}
	}
	if err := ld.Expand(); err != nil {
		return nil, err
	}
	if err := ld.Subsume(); err != nil {
		return nil, err
	}
	if err := ld.Expand(); err != nil {
		return nil, err
	}
	if _, err := ld.Finalize(); err != nil {
		return nil, err
	}
	dagInsertNew.Add(int64(ld.Derivations - ld.Duplicates))
	dagInsertDuplicate.Add(int64(ld.Duplicates))
	return ld, nil
}

// ClearMaterialized resets the DAG's costing state to the empty
// materialized set: it drops the members without propagating and then
// re-costs in one full pass, so the search counters (Figure 10's
// propagations and recomputations) count no work of its own.
func ClearMaterialized(pd *physical.DAG) {
	for _, m := range pd.MaterializedSet() {
		pd.SetMaterializedRaw(m, false)
	}
	pd.Recost()
}

// Optimize runs the selected algorithm on the DAG and returns the resulting
// plan, its estimated cost, and instrumentation. The DAG's costing state is
// reset before the run (physical.DAG.Reset, which costs nothing on a DAG
// already in that state) and left reflecting the returned result, whose plan
// nodes are stamped with their costs in it (PlanNode.Cost). The plan is
// sealed (physical.Draft.Seal), its storage its own: the DAG may run further
// optimizations, each rewriting the node costs and reusing the DAG's drafts
// and scratch, without changing what an earlier Result reports.
//
// The context is consulted at checkpoints inside the algorithms' main
// loops (each greedy pick, each RU query pass, each SH round); when it is
// cancelled, Optimize returns ctx.Err() promptly and the DAG's costing
// state is unspecified (the next Optimize resets it).
func Optimize(ctx context.Context, pd *physical.DAG, alg Algorithm, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pd.Reset()
	noShare := pd.TotalCost() // Volcano baseline: empty materialized set
	start := time.Now()
	var (
		res *Result
		err error
	)
	switch alg {
	case Volcano:
		res = optimizeVolcano(pd)
	case VolcanoSH:
		res, err = optimizeVolcanoSH(ctx, pd)
		res = guardBaseline(pd, res, err, noShare)
	case VolcanoRU:
		res, err = optimizeVolcanoRU(ctx, pd)
		res = guardBaseline(pd, res, err, noShare)
	case Greedy:
		res, err = optimizeGreedy(ctx, pd, opt)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", alg)
	}
	if err != nil {
		return nil, err
	}
	res.Algorithm = alg
	res.NoShareCost = noShare
	res.Stats.OptTime = time.Since(start)
	res.Stats.CostPropagations, res.Stats.CostRecomputations = pd.Counters()
	res.Stats.DAGGroups = pd.L.NumGroups()
	res.Stats.DAGExprs = pd.L.NumExprs()
	res.Stats.DAGDerivations, res.Stats.DAGDuplicates = pd.L.Derivations, pd.L.Duplicates
	res.Stats.PhysNodes = len(pd.Nodes)
	recordOptimizeMetrics(res)
	return res, nil
}

// optimizeVolcano is the baseline: best plan with no sharing (§3.1). The
// DAG's costing state must be the empty materialized set, fully costed.
func optimizeVolcano(pd *physical.DAG) *Result {
	return &Result{Cost: pd.TotalCost(), Plan: pd.ExtractPlan()}
}

// guardBaseline enforces the heuristics' monotone-improvement contract:
// sharing is adopted only when it helps. Volcano-SH's subsumption prepass
// can keep a switched derivation that loses for one parent while winning
// for others, and Volcano-RU's per-query plans are extracted assuming
// promoted reuses the final SH pass may reject — in both cases the
// combined plan can cost MORE than plain no-sharing Volcano (FuzzOptimize
// finds such batches). When that happens, return the baseline plan
// instead, retaining the heuristic pass's instrumentation. No-op on error
// or when the heuristic is within tolerance of the baseline or better.
func guardBaseline(pd *physical.DAG, res *Result, err error, noShare cost.Cost) *Result {
	if err != nil || res == nil || cost.Leq(res.Cost, noShare) {
		return res
	}
	ClearMaterialized(pd)
	fb := optimizeVolcano(pd)
	fb.Stats = res.Stats
	return fb
}

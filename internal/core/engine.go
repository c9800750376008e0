package core

import (
	"context"
	"sync/atomic"

	"mqo/internal/cost"
	"mqo/internal/physical"
)

// searchEngine is the shared parallel search substrate the optimization
// algorithms run on. It owns the three phases every DAG search repeats:
//
//	candidate enumeration → overlay-parallel evaluation → deterministic
//	pick/commit
//
// Evaluation fans a wave of what-if candidates out over per-worker
// physical.CostView overlays of the shared DAG (acquired from the DAG's
// view pool), so the shared costing state stays read-only for the whole
// wave; commits happen only from the coordinating goroutine, between
// waves. The greedy loops, Volcano-RU's order passes and the sharability
// analysis all sit on this machinery instead of owning private loops over
// shared DAG state.
//
// Determinism contract: parallelism and speculation are wall-clock knobs,
// never plan knobs. At a fixed multi-pick width, every worker count
// returns byte-identical results — evaluation waves return results in
// input order regardless of scheduling, picks break ties by benefit first,
// then smaller topological number, and the speculation schedules depend
// only on wave results. Across multi-pick widths, the materialized SET,
// the plan and the total cost are identical (speculative commits are
// conflict-free prefixes of the benefit ranking — see pickPrefix — which
// serial single-pick would have chosen over its following waves anyway);
// only the order picks commit in may permute, when independent candidates
// tie exactly in benefit and serial's re-evaluation after a commit drifts
// the tie by float ulps that the skipped wave preserves.
type searchEngine struct {
	pd *physical.DAG
	// opt carries the §6.3 ablation switches; DisableIncremental forces
	// from-scratch recosting on the shared DAG and therefore serial waves.
	opt GreedyOptions
	// workers is the resolved wave fan-out (resolveWorkers already applied).
	workers int
	// multiPick is the maximum number of cone-disjoint picks committed per
	// evaluation wave; 1 is classic single-pick.
	multiPick int
	// views are the per-worker overlays, views[w] owned by worker w for the
	// duration of a wave. Acquired from the DAG's pool, returned on close.
	views []*physical.CostView

	// recomps counts benefit recomputations; workers update it atomically
	// and the final value is copied into Stats.BenefitRecomputations.
	recomps atomic.Int64
	// waves counts non-empty evaluation waves; specPicks counts commits
	// beyond the first within one wave (the multi-pick win). Both are
	// coordinator-only.
	waves     int64
	specPicks int64
}

// newSearchEngine builds an engine for one optimization run. numCandidates
// sizes the auto-tune work estimate (candidates × DAG nodes, the cost of
// one full evaluation wave).
func newSearchEngine(pd *physical.DAG, opts Options, numCandidates int) *searchEngine {
	w := resolveWorkers(benefitCrossover, opts.Parallelism, numCandidates*len(pd.Nodes))
	k := opts.MultiPick
	if k < 1 {
		k = 1
	}
	if opts.Greedy.DisableIncremental {
		// §6.3 ablation: from-scratch recosting mutates the shared DAG, so
		// it can neither fan out nor capture the propagation cones
		// multi-pick needs.
		w, k = 1, 1
	}
	e := &searchEngine{pd: pd, opt: opts.Greedy, workers: w, multiPick: k}
	if !opts.Greedy.DisableIncremental {
		e.views = make([]*physical.CostView, w)
		for i := range e.views {
			e.views[i] = pd.AcquireView()
		}
	}
	return e
}

// close drains every view's propagation instrumentation into the DAG's
// Figure 10 counters and returns the views to the DAG's pool. Call exactly
// once, from the coordinating goroutine, after the last wave — on error
// paths too, so cancelled runs leak neither views nor counters.
func (e *searchEngine) close() {
	for _, v := range e.views {
		e.pd.AddCounters(v.DrainCounters())
		e.pd.ReleaseView(v)
	}
	e.views = nil
}

// benefitOn computes one candidate's benefit on the given view against the
// supplied bestcost(Q, S) baseline. With multi-pick enabled it also
// captures the what-if's conflict cone (the dirty-ancestor set of the
// propagation wave); otherwise the cone is nil.
func (e *searchEngine) benefitOn(v *physical.CostView, base cost.Cost, n *physical.Node) (cost.Cost, physical.Cone) {
	e.recomps.Add(1)
	if e.opt.DisableIncremental {
		// From-scratch recosting on the shared DAG (serial by construction —
		// BestCostWith mutates the DAG).
		with := e.pd.BestCostWith(append(e.pd.MaterializedSet(), n))
		return base - with, physical.Cone{}
	}
	if e.multiPick > 1 {
		return v.WhatIfBenefitCone(n)
	}
	return v.WhatIfBenefit(n), physical.Cone{}
}

// evalWave computes the benefits of all candidates against the DAG's
// current state and returns them in input order, along with the conflict
// cones when multi-pick is enabled (nil otherwise). The shared DAG is
// treated as read-only for the duration of the wave; results do not depend
// on the worker count or on goroutine scheduling. A cancelled context
// makes workers stop early and returns ctx.Err().
func (e *searchEngine) evalWave(ctx context.Context, nodes []*physical.Node) ([]cost.Cost, []physical.Cone, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(nodes) == 0 {
		return nil, nil, nil
	}
	e.waves++
	base := e.pd.TotalCost()
	out := make([]cost.Cost, len(nodes))
	var cones []physical.Cone
	if e.multiPick > 1 {
		cones = make([]physical.Cone, len(nodes))
	}
	err := parallelFor(ctx, e.workers, len(nodes), func(w, i int) {
		var v *physical.CostView
		if e.views != nil {
			v = e.views[w]
		}
		ben, cone := e.benefitOn(v, base, nodes[i])
		out[i] = ben
		if cones != nil {
			cones[i] = cone
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, cones, nil
}

// commit materializes n on the shared DAG (incremental Figure 5 update).
// Coordinator-only: never call while a wave is in flight.
func (e *searchEngine) commit(n *physical.Node) {
	e.pd.SetMaterialized(n, true)
}

// disjointFromAll reports whether cone avoids conflict with every pick's
// cone — the condition under which committing the candidate in the same
// wave is indistinguishable from committing it in the next serial round.
func disjointFromAll(picks []physical.Cone, cone physical.Cone) bool {
	if !cone.Valid() {
		return false
	}
	for _, p := range picks {
		if cone.Conflicts(p) {
			return false
		}
	}
	return true
}

// pickPrefix implements the speculative multi-pick commit rule shared by
// the exhaustive and space-budget loops. rank lists candidate indices in
// pick order (score descending, topological number ascending); cones are
// the candidates' wave-evaluated conflict cones (nil when multi-pick is
// off, which caps the prefix at one); eligible reports whether a candidate
// may be committed right now (positive benefit, affordable, ...);
// skippable reports whether an ineligible candidate is permanently out of
// the running (so passing over it cannot change what serial would pick
// later — e.g. a candidate that no longer fits the space budget, which it
// never will again).
//
// The wave commits the maximal eligible, pairwise conflict-free PREFIX of
// the ranking, capped at the engine's multi-pick width. Stopping at the
// first conflicting (or non-skippable ineligible) candidate — rather than
// skipping past it — is what makes the result identical to serial
// single-pick: every candidate ranked above a committed pick has either
// been committed alongside it or ruled out forever, so the serial
// schedule would have committed the same nodes over its following waves
// (their benefits are unchanged by conflict-freedom, and under the §4.3
// monotonicity assumption no passed-over candidate's benefit can rise
// above them).
//
// onPick, when non-nil, runs after each commit so the caller can update
// the state eligible consults (e.g. the space budget already consumed).
func (e *searchEngine) pickPrefix(rank []int, nodes []*physical.Node, cones []physical.Cone,
	eligible func(i int) bool, skippable func(i int) bool, onPick func(i int)) []int {

	var picked []int
	var pickedCones []physical.Cone
	for _, i := range rank {
		if len(picked) >= e.multiPick || (len(picked) > 0 && cones == nil) {
			break
		}
		if !eligible(i) {
			if skippable != nil && skippable(i) {
				continue
			}
			break
		}
		if len(picked) > 0 && !disjointFromAll(pickedCones, cones[i]) {
			break
		}
		e.commit(nodes[i])
		if len(picked) > 0 {
			e.specPicks++
		}
		picked = append(picked, i)
		if cones != nil {
			pickedCones = append(pickedCones, cones[i])
		}
		if onPick != nil {
			onPick(i)
		}
	}
	return picked
}

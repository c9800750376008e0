package core

import (
	"time"

	"mqo/internal/obs"
)

// Optimizer phase names, shared by Stats.Phases keys, the
// mqo_opt_phase_seconds{phase=...} metric and trace span names.
const (
	OptPhaseSharability = "sharability"
	OptPhaseCandidates  = "candidates"
	OptPhaseWaves       = "waves"
	OptPhaseCommit      = "commit"
)

// Package-level optimizer metrics on the default registry. Instances are
// resolved once at init; recording is lock-free.
var (
	optPhaseSeconds = map[string]*obs.Histogram{
		OptPhaseSharability: obs.Default().Histogram("mqo_opt_phase_seconds", "Optimizer search phase wall time in seconds.", obs.L("phase", OptPhaseSharability)),
		OptPhaseCandidates:  obs.Default().Histogram("mqo_opt_phase_seconds", "Optimizer search phase wall time in seconds.", obs.L("phase", OptPhaseCandidates)),
		OptPhaseWaves:       obs.Default().Histogram("mqo_opt_phase_seconds", "Optimizer search phase wall time in seconds.", obs.L("phase", OptPhaseWaves)),
		OptPhaseCommit:      obs.Default().Histogram("mqo_opt_phase_seconds", "Optimizer search phase wall time in seconds.", obs.L("phase", OptPhaseCommit)),
	}
	// optPhaseSpan names each phase's trace span.
	optPhaseSpan = map[string]string{
		OptPhaseSharability: "opt:" + OptPhaseSharability,
		OptPhaseCandidates:  "opt:" + OptPhaseCandidates,
		OptPhaseWaves:       "opt:" + OptPhaseWaves,
		OptPhaseCommit:      "opt:" + OptPhaseCommit,
	}
	optSeconds = map[Algorithm]*obs.Histogram{
		Volcano:   obs.Default().Histogram("mqo_opt_seconds", "End-to-end optimization wall time per batch in seconds.", obs.L("algorithm", Volcano.String())),
		VolcanoSH: obs.Default().Histogram("mqo_opt_seconds", "End-to-end optimization wall time per batch in seconds.", obs.L("algorithm", VolcanoSH.String())),
		VolcanoRU: obs.Default().Histogram("mqo_opt_seconds", "End-to-end optimization wall time per batch in seconds.", obs.L("algorithm", VolcanoRU.String())),
		Greedy:    obs.Default().Histogram("mqo_opt_seconds", "End-to-end optimization wall time per batch in seconds.", obs.L("algorithm", Greedy.String())),
	}
	optBatches = map[Algorithm]*obs.Counter{
		Volcano:   obs.Default().Counter("mqo_opt_batches_total", "Optimized batches by algorithm.", obs.L("algorithm", Volcano.String())),
		VolcanoSH: obs.Default().Counter("mqo_opt_batches_total", "Optimized batches by algorithm.", obs.L("algorithm", VolcanoSH.String())),
		VolcanoRU: obs.Default().Counter("mqo_opt_batches_total", "Optimized batches by algorithm.", obs.L("algorithm", VolcanoRU.String())),
		Greedy:    obs.Default().Counter("mqo_opt_batches_total", "Optimized batches by algorithm.", obs.L("algorithm", Greedy.String())),
	}
	optCostPropagations   = obs.Default().Counter("mqo_opt_cost_propagations_total", "Incremental cost-update propagation steps.")
	optCostRecomputations = obs.Default().Counter("mqo_opt_cost_recomputations_total", "From-scratch cost recomputations.")
	optBenefitRecomps     = obs.Default().Counter("mqo_opt_benefit_recomputations_total", "Greedy candidate benefit recomputations.")
	optEvalWaves          = obs.Default().Counter("mqo_opt_eval_waves_total", "Greedy benefit-evaluation waves.")
	optCandidates         = obs.Default().Counter("mqo_opt_candidates_total", "Greedy sharing candidates considered.")
	optSharableNodes      = obs.Default().Counter("mqo_opt_sharable_nodes_total", "Physical nodes found sharable.")
	dagInsertNew          = obs.Default().Counter("mqo_dag_insert_total", "Operation nodes logical DAG builds derived, by whether the expression table already held them.", obs.L("outcome", "new"))
	dagInsertDuplicate    = obs.Default().Counter("mqo_dag_insert_total", "Operation nodes logical DAG builds derived, by whether the expression table already held them.", obs.L("outcome", "duplicate"))
	optEstSavedSeconds    = obs.Default().FloatCounter("mqo_opt_est_saved_seconds_total", "Estimated cost-model seconds saved versus the no-sharing baseline.")
)

// phaseTimer measures one optimizer phase into stats, the phase histogram
// and — when tracing — a span on the run's track.
type phaseTimer struct {
	stats *Stats
	name  string
	start time.Time
	span  interface{ End() }
}

func startPhase(stats *Stats, track int64, name string) phaseTimer {
	return phaseTimer{stats: stats, name: name, start: time.Now(),
		span: obs.StartSpan(optPhaseSpan[name], track, nil)}
}

func (p phaseTimer) end() {
	d := time.Since(p.start)
	p.span.End()
	if p.stats.Phases == nil {
		p.stats.Phases = map[string]time.Duration{}
	}
	p.stats.Phases[p.name] += d
	if h := optPhaseSeconds[p.name]; h != nil {
		h.ObserveDuration(d)
	}
}

// recordOptimizeMetrics exports one Optimize run's Stats to the registry.
func recordOptimizeMetrics(res *Result) {
	if c := optBatches[res.Algorithm]; c != nil {
		c.Inc()
	}
	if h := optSeconds[res.Algorithm]; h != nil {
		h.ObserveDuration(res.Stats.OptTime)
	}
	optCostPropagations.Add(res.Stats.CostPropagations)
	optCostRecomputations.Add(res.Stats.CostRecomputations)
	optBenefitRecomps.Add(res.Stats.BenefitRecomputations)
	optEvalWaves.Add(res.Stats.EvalWaves)
	optCandidates.Add(int64(res.Stats.Candidates))
	optSharableNodes.Add(int64(res.Stats.SharableNodes))
	if saved := float64(res.NoShareCost - res.Cost); saved > 0 {
		optEstSavedSeconds.Add(saved)
	}
}

package mqo

import "mqo/internal/obs"

// Serving-phase latency histograms on the default registry: one series per
// phase of the Submit path. Parse and lower are observed per text the session
// compiles (before batching; a text it holds compiled observes neither);
// optimize, execute and spool once per batch.
// BatchInfo.Phases carries the same breakdown per answer, and GET /stats
// reports the cumulative per-phase seconds.
var (
	phaseParse    = obs.Default().Histogram("mqo_batch_phase_seconds", "Serving-phase latency in seconds.", obs.L("phase", "parse"))
	phaseLower    = obs.Default().Histogram("mqo_batch_phase_seconds", "Serving-phase latency in seconds.", obs.L("phase", "lower"))
	phaseOptimize = obs.Default().Histogram("mqo_batch_phase_seconds", "Serving-phase latency in seconds.", obs.L("phase", "optimize"))
	phaseExecute  = obs.Default().Histogram("mqo_batch_phase_seconds", "Serving-phase latency in seconds.", obs.L("phase", "execute"))
	phaseSpool    = obs.Default().Histogram("mqo_batch_phase_seconds", "Serving-phase latency in seconds.", obs.L("phase", "spool"))
)

// phaseSecondsSnapshot reports the cumulative seconds spent per serving
// phase (the GET /stats "phase_seconds" object), sourced from the registry
// histograms.
func phaseSecondsSnapshot() map[string]float64 {
	return map[string]float64{
		"parse":    phaseParse.Sum(),
		"lower":    phaseLower.Sum(),
		"optimize": phaseOptimize.Sum(),
		"execute":  phaseExecute.Sum(),
		"spool":    phaseSpool.Sum(),
	}
}

package bench

import (
	"encoding/json"
)

// jsonCell is the machine-readable form of one Cell: algorithm by name,
// times in seconds, plus the raw greedy counters.
type jsonCell struct {
	Algorithm   string  `json:"algorithm"`
	Cost        float64 `json:"cost"`
	OptTimeSecs float64 `json:"opt_time_secs"`

	CostPropagations      int64 `json:"cost_propagations,omitempty"`
	CostRecomputations    int64 `json:"cost_recomputations,omitempty"`
	BenefitRecomputations int64 `json:"benefit_recomputations,omitempty"`
	Candidates            int   `json:"candidates,omitempty"`
	SharableNodes         int   `json:"sharable_nodes,omitempty"`
	DAGGroups             int   `json:"dag_groups,omitempty"`
	DAGExprs              int   `json:"dag_exprs,omitempty"`
	PhysNodes             int   `json:"phys_nodes,omitempty"`
	EvalWaves             int64 `json:"eval_waves,omitempty"`
}

type jsonRow struct {
	Label string             `json:"label"`
	Cells []jsonCell         `json:"cells"`
	Extra map[string]float64 `json:"extra,omitempty"`
}

type jsonExperiment struct {
	Name  string    `json:"name"`
	Title string    `json:"title"`
	Rows  []jsonRow `json:"rows"`
	Notes []string  `json:"notes,omitempty"`
}

// MarshalJSON renders the experiment in a stable machine-readable shape
// (mqopaper -json, what CI archives as BENCH_paper.json):
// algorithms by name, costs in cost-model seconds, optimization times in
// wall seconds, instrumentation counters flattened per cell.
func (e *Experiment) MarshalJSON() ([]byte, error) {
	out := jsonExperiment{Name: e.Name, Title: e.Title, Notes: e.Notes}
	for _, r := range e.Rows {
		jr := jsonRow{Label: r.Label, Extra: r.Extra, Cells: []jsonCell{}}
		for _, c := range r.Cells {
			jr.Cells = append(jr.Cells, jsonCell{
				Algorithm:             c.Alg.String(),
				Cost:                  c.Cost,
				OptTimeSecs:           c.OptTime.Seconds(),
				CostPropagations:      c.Stats.CostPropagations,
				CostRecomputations:    c.Stats.CostRecomputations,
				BenefitRecomputations: c.Stats.BenefitRecomputations,
				Candidates:            c.Stats.Candidates,
				SharableNodes:         c.Stats.SharableNodes,
				DAGGroups:             c.Stats.DAGGroups,
				DAGExprs:              c.Stats.DAGExprs,
				PhysNodes:             c.Stats.PhysNodes,
				EvalWaves:             c.Stats.EvalWaves,
			})
		}
		out.Rows = append(out.Rows, jr)
	}
	return json.Marshal(out)
}

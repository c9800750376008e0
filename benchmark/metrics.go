package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
)

// spec is BENCHMARK.json: the one place that names the workloads, the
// metrics, their units and their regression bounds. The program reads it
// at start and refuses to emit a metric it does not declare, so the two
// cannot drift apart.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory, which is the
// root of the checkout when run through run.sh, or from its parent, which
// is the root when run from benchmark/ (go run ., go test).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		path := filepath.Join(root, "BENCHMARK.json")
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s := spec{root: root}
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// declared returns the metrics a run in the given mode must print.
func (s *spec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one printed value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// measure collects a workload's metric values by name.
type measure struct {
	vals    map[string]float64
	samples map[string]int
}

func newMeasure() *measure {
	return &measure{vals: map[string]float64{}, samples: map[string]int{}}
}

func (m *measure) set(name string, v float64, samples int) {
	m.vals[name] = v
	m.samples[name] = samples
}

// setPerPass sets every summed count or time as its mean per pass.
func (m *measure) setPerPass(sums map[string]float64, passes int) {
	for name, v := range sums {
		if name != baseRowsKey {
			m.set(name, v/float64(passes), passes)
		}
	}
}

// outcome is what one run of one workload reports.
type outcome struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish turns a measure into the declared metrics of the mode. A declared
// per-layer metric the workload never touched is zero: the layer was
// bypassed. An undeclared metric, or an end-to-end metric that is missing,
// zero or not finite, is an error.
func (m *measure) finish(sp *spec, trace bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range sp.declared(trace) {
		v, ok := m.vals[d.Name]
		if !trace && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit, Samples: m.samples[d.Name]}
	}
	all := map[string]bool{}
	for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		all[d.Name] = true
	}
	for name := range m.vals {
		if !all[name] {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// allocBytes is the cumulative number of heap bytes allocated so far, read
// without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of xs the way Python's
// statistics.quantiles does by default (exclusive method), so quartiles
// printed here match the ones the acceptance rule is stated in.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

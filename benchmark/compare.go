package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readDoc(path string) (*resultsDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// values gathers a document's runs as workload → metric → one value per run.
func (d *resultsDoc) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range d.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, v := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], v.Value)
		}
	}
	return out
}

// verdict judges new against old for one metric under its bound. The
// change is the share of old's median by which new's median is worse. When
// either side's runs spread wider than the bound — the distance between
// their quartiles as a share of their median — the comparison is
// unresolved, not "same". Quartiles need at least two runs a side.
func verdict(d metricSpec, old, new []float64) (worse float64, v string) {
	om, nm := median(old), median(new)
	if om != 0 {
		worse = (nm - om) / om
		if d.Better == "higher" {
			worse = -worse
		}
	}
	if d.Bound == 0 {
		return worse, "-"
	}
	for _, xs := range [][]float64{old, new} {
		if m := median(xs); len(xs) >= 2 && m != 0 && (quantile(xs, 0.75)-quantile(xs, 0.25))/m > d.Bound {
			return worse, "unresolved"
		}
	}
	switch {
	case worse > d.Bound:
		return worse, "worse"
	case worse < -d.Bound:
		return worse, "better"
	}
	return worse, "same"
}

// compareFiles prints one row per workload and metric both files hold:
// both medians and quartiles, the change, and for end-to-end metrics the
// verdict under the bound BENCHMARK.json fixes.
func compareFiles(w io.Writer, sp *spec, oldPath, newPath string) error {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return err
	}
	oldV, newV := oldDoc.values(), newDoc.values()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tworse by\tbound\tverdict")
	row := func(xs []float64) string {
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	for _, wl := range sp.Workloads {
		for _, d := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
			o, n := oldV[wl.Name][d.Name], newV[wl.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			worse, v := verdict(d, o, n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%g\t%s\n",
				wl.Name, d.Name, d.Unit, row(o), row(n), 100*worse, d.Bound, v)
		}
	}
	return tw.Flush()
}

package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates testdata/paper_outputs.json:
//
//	go test ./internal/bench -run TestPaperOutputsPinned -update
var update = flag.Bool("update", false, "rewrite testdata/paper_outputs.json")

// timingKeys are the fields of an experiment's JSON that read a clock, or
// are computed from one, and so differ from run to run.
var timingKeys = map[string]bool{
	"opt_time_secs": true,
	"MQO_wall_ms":   true,
	"NoMQO_wall_ms": true,
	"overhead_pct":  true,
	"benefit_s":     true,
}

// TestPaperOutputsPinned locks the paper's experiments — every one of
// Experiments, at mqopaper's default -maxcq — to a snapshot: costs,
// counters, row labels and notes, everything in their JSON but the timings.
func TestPaperOutputsPinned(t *testing.T) {
	var all []any
	for _, r := range Experiments(3) {
		e, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if e.Name != r.Name {
			t.Errorf("runner %q returned experiment %q", r.Name, e.Name)
		}
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		all = append(all, dropTimings(v))
	}
	got, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "paper_outputs.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the snapshot)", err)
	}
	if string(got) != string(want) {
		t.Errorf("paper outputs differ from %s (run with -update if the change is intended):\n%s",
			path, firstDiff(string(want), string(got)))
	}
}

// dropTimings deletes timingKeys from every object in a decoded JSON value.
func dropTimings(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if timingKeys[k] {
				delete(v, k)
				continue
			}
			v[k] = dropTimings(x)
		}
	case []any:
		for i, x := range v {
			v[i] = dropTimings(x)
		}
	}
	return v
}

// firstDiff shows the first line where want and got part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines, the snapshot %d", len(g), len(w))
}

package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mqo/internal/bench"
)

// TestMain re-enters main with MQOPAPER_ARGS as the command line when the
// variable is set, so the tests can observe the process's exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MQOPAPER_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBadFlagValuesExit2: a value no experiment accepts is an error on one
// line and exit status 2, never a silent default.
func TestBadFlagValuesExit2(t *testing.T) {
	for _, args := range []string{"-maxcq 9", "-maxcq 0", "-maxcq -1", "-experiment nope"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MQOPAPER_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%s: %v, output %q; want exit status 2 and a one-line error", args, err, out)
		}
	}
}

// emitted is the part of one -json experiment the tests read.
type emitted struct {
	Name string            `json:"name"`
	Rows []json.RawMessage `json:"rows"`
}

// runJSON runs mqopaper with args and decodes its JSON output.
func runJSON(t *testing.T, args string) []emitted {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MQOPAPER_ARGS="+args)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	var exps []emitted
	if err := json.Unmarshal(out, &exps); err != nil {
		t.Fatalf("%s: output is not a JSON array of experiments: %v", args, err)
	}
	return exps
}

// TestEveryExperimentEmitted: -json with no -experiment emits every
// experiment of bench.Experiments once, in list order, each with rows.
func TestEveryExperimentEmitted(t *testing.T) {
	exps := runJSON(t, "-json")
	want := bench.Experiments(3)
	if len(exps) != len(want) {
		t.Fatalf("%d experiments emitted, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.Name != want[i].Name || len(e.Rows) == 0 {
			t.Errorf("experiment %d: %q with %d rows, want %q with rows", i, e.Name, len(e.Rows), want[i].Name)
		}
	}
}

// TestMaxCQReachesAblations: the ablations run CQ1..CQ<-maxcq>, one row each.
func TestMaxCQReachesAblations(t *testing.T) {
	for _, name := range []string{"monotonicity", "sharability"} {
		exps := runJSON(t, "-json -maxcq 2 -experiment "+name)
		if len(exps) != 1 || exps[0].Name != name || len(exps[0].Rows) != 2 {
			t.Errorf("-maxcq 2 -experiment %s: %+v, want one experiment with 2 rows", name, exps)
		}
	}
}

package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mqo/internal/obs"
)

var rowsTotal = regexp.MustCompile(`executed: \d+ queries, (\d+) rows total`)

// TestEveryWorkloadRuns optimizes and executes each named workload once on
// tiny generated data. The nested workloads q2 and q2ni must bind their
// parameter and return rows, and -dag must print the DAG before the run.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"-workload", w.name, "-n", "1", "-sf", "0.0005", "-pool", "64"}
			if w.name == "q2ni" {
				args = append(args, "-dag")
			}
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			m := rowsTotal.FindStringSubmatch(out.String())
			if m == nil {
				t.Fatalf("no executed line in:\n%s", out.String())
			}
			if rows, _ := strconv.Atoi(m[1]); w.nested && rows == 0 {
				t.Errorf("nested workload returned no rows:\n%s", out.String())
			}
			dag := strings.Index(out.String(), "-- expanded logical DAG --")
			if w.name == "q2ni" {
				if !strings.HasPrefix(out.String(), "queries: 2   logical groups: ") || dag < 0 ||
					!strings.Contains(out.String(), "[sharable, degree ") {
					t.Errorf("-dag printed no DAG summary and groups first:\n%s", out.String())
				}
			} else if dag >= 0 {
				t.Errorf("DAG printed without -dag")
			}
		})
	}
}

// TestExitStatus: a command line mqorun cannot run (a bad flag, flag value
// or -n, an unknown workload or algorithm) exits 2, a failed run 1. None of
// the -serve cases gets as far as starting a server.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-bogus"}, true},
		{[]string{"-sf", "many"}, true},
		{[]string{"-workload", "nope"}, true},
		{[]string{"-alg", "nope"}, true},
		{[]string{"-workload", "ssb", "-n", "9"}, true},
		{[]string{"-workload", "cq", "-n", "0"}, true},
		{[]string{"-sf", "0"}, true},
		{[]string{"-sf", "-1"}, true},
		{[]string{"-sf", "NaN"}, true},
		{[]string{"-resultcache", "-1"}, true},
		{[]string{"-resultcache", "4096", "-resultcache-warm", "-1"}, true},
		{[]string{"-resultcache-warm", "4096"}, true},
		{[]string{"-max-wait", "0s"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-max-wait", "-1ms"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-max-batch", "0"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-max-batch", "1025"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-workers", "0"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-workers", "65"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-sf", "-1"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-sql", "SELECT nname FROM nation"}, true},
		{[]string{"-serve", "127.0.0.1:0", "-alg", "nope"}, true},
		{[]string{"-sql", "SELECT x FROM nothing"}, false},
	} {
		var out strings.Builder
		err := run(c.args, &out)
		var usage usageError
		if err == nil || errors.As(err, &usage) != c.usage {
			t.Errorf("%v: error %v, usage error %v; want usage error %v", c.args, err, errors.As(err, &usage), c.usage)
		}
	}
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil || !strings.Contains(out.String(), "-workload") ||
		!strings.Contains(out.String(), "(1-1024)") || !strings.Contains(out.String(), "(1-64)") {
		t.Errorf("-h: %v, output %q; want the flags with their bounds and no error", err, out.String())
	}
}

// TestRunTrace: -trace traces a run too, writing a chrome trace that holds
// the batch's executor span.
func TestRunTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	if err := run([]string{"-workload", "bq", "-n", "1", "-sf", "0.0005", "-trace", path}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if obs.Tracing() {
		t.Error("tracing still on after the run")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not chrome JSON: %v", err)
	}
	execSpans := 0
	for _, e := range trace.TraceEvents {
		if e.Name == "exec" {
			execSpans++
		}
	}
	if execSpans == 0 {
		t.Errorf("trace holds no exec span among %d events", len(trace.TraceEvents))
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

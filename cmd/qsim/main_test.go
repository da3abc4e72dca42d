package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the CLI: with QSIM_MAIN=1
// the process runs main() on its own arguments, so tests can assert the
// real exit codes the shell would see.
func TestMain(m *testing.M) {
	if os.Getenv("QSIM_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QSIM_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// A parser-valid fault plan that takes down every backend of the fleet
// at once leaves the router nowhere to send work. qsim must reject it
// up front with an error and exit 1 — with or without -mitigate —
// instead of panicking mid-run.
func TestAllBackendsDownPlanExits1(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "all-down.json")
	if err := os.WriteFile(plan, []byte(`{"seed": 1, "backend_crashes": [`+
		`{"backend": 1, "at": 500}, {"backend": 2, "at": 500}, {"backend": 3, "at": 500}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := filepath.Join("..", "..", "examples", "scenarios", "fleet-failover.json")
	for _, extra := range [][]string{nil, {"-mitigate"}} {
		args := append([]string{"-scenario", scenario, "-faults", plan}, extra...)
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1\nstderr: %s", extra, code, stderr)
		}
		if strings.Contains(stderr, "panic") {
			t.Errorf("%v: qsim panicked:\n%s", extra, stderr)
		}
		if !strings.Contains(stderr, "every one of the 3 backends is down at t=500") {
			t.Errorf("%v: stderr lacks the all-down error:\n%s", extra, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: wrote output before rejecting the plan:\n%s", extra, stdout)
		}
	}
}

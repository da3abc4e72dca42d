package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
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

// A real kill: SIGKILL qsim once its first checkpoint is on disk, then
// -resume it. The checkpoint flushed the decision log's buffered bytes
// before it landed, so the file is never shorter than the offset it
// records, and the resumed log matches an uninterrupted run byte for
// byte.
func TestSIGKILLAfterCheckpointResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join("..", "..", "examples", "scenarios", "mixed-burst.json")
	ref := filepath.Join(dir, "ref.jsonl")
	if _, stderr, code := runCLI(t, "-scenario", scenario, "-decisions", ref); code != 0 {
		t.Fatalf("reference run: exit %d\n%s", code, stderr)
	}

	ckpt := filepath.Join(dir, "ckpt")
	log := filepath.Join(dir, "decisions.jsonl")
	cmd := exec.Command(os.Args[0], "-scenario", scenario,
		"-checkpoint-every", "1", "-checkpoint-dir", ckpt, "-decisions", log)
	cmd.Env = append(os.Environ(), "QSIM_MAIN=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if m, _ := filepath.Glob(filepath.Join(ckpt, "ckpt-*.bin")); len(m) > 0 {
			break
		}
		if i == 30000 {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no checkpoint appeared within 30s")
		}
		time.Sleep(time.Millisecond) //lint:ignore wallclock the test polls a real child process for its first checkpoint file
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // "signal: killed", or nil if the run had already finished

	if _, stderr, code := runCLI(t, "-resume", ckpt, "-decisions", log); code != 0 {
		t.Fatalf("resume: exit %d\n%s", code, stderr)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed decision log differs from the uninterrupted run (%d vs %d bytes, %d NUL bytes)",
			len(got), len(want), bytes.Count(got, []byte{0}))
	}
}

// A checkpoint records the trace's and the decision log's byte offsets,
// which a compressed export cannot be rewound to: qsim must refuse a .gz
// -trace or -decisions file up front, for a checkpointed run and for a
// resume alike, before writing anything.
func TestCheckpointingRefusesCompressedExports(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	gz := filepath.Join(dir, "export.jsonl.gz")
	for _, args := range [][]string{
		{"-exp", "infeasible", "-decisions", gz, "-checkpoint-every", "1", "-checkpoint-dir", ckpt},
		{"-exp", "infeasible", "-trace", gz, "-checkpoint-every", "1", "-checkpoint-dir", ckpt},
		{"-resume", ckpt, "-decisions", gz},
	} {
		_, stderr, code := runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "no .gz") {
			t.Errorf("%v: exit %d, want 2 with a .gz error\nstderr: %s", args, code, stderr)
		}
		if _, err := os.Stat(gz); err == nil {
			t.Errorf("%v: wrote %s before refusing it", args, gz)
			os.Remove(gz)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with EASYIO_BENCH_MAIN set,
// the test binary is easyio-bench.
func TestMain(m *testing.M) {
	if os.Getenv("EASYIO_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs easyio-bench with args and returns its exit code, stdout
// and stderr.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EASYIO_BENCH_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

func TestUnknownExperimentExits2(t *testing.T) {
	for _, exp := range []string{"fig13", "table1,tabel2", ""} {
		code, stdout, stderr := runBench(t, "-exp", exp)
		if code != 2 {
			t.Errorf("-exp %q: exit %d, want 2", exp, code)
		}
		if stdout != "" {
			t.Errorf("-exp %q ran experiments before rejecting the list:\n%s", exp, stdout)
		}
		if !strings.Contains(stderr, "table2") || !strings.Contains(stderr, "serve") {
			t.Errorf("-exp %q: stderr does not list the valid experiments:\n%s", exp, stderr)
		}
	}
}

func TestKnownExperimentsRun(t *testing.T) {
	code, stdout, stderr := runBench(t, "-exp", "table1, fig1")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "==== table1 ====\n") || !strings.Contains(stdout, "\n==== fig1 ====\n") {
		t.Errorf("want table1 then fig1, got:\n%s", stdout)
	}
}

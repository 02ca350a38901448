package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: with
// MORPHEUSBENCH_RUN_MAIN set, the test binary behaves as morpheusbench.
func TestMain(m *testing.M) {
	if os.Getenv("MORPHEUSBENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs morpheusbench with args in a child process and returns its
// exit status and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MORPHEUSBENCH_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestNegativeCountsFailLoudly: every count flag rejects a negative value
// with exit status 2 and a message naming the flag, instead of running
// with a default in its place.
func TestNegativeCountsFailLoudly(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
	}{
		{"parallel", "-3"},
		{"batch-depth", "-4"},
		{"window-depth", "-1"},
		{"ssd-cache-mb", "-64"},
		{"shards", "-2"},
		{"replicas", "-1"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			code, stderr := runMain(t, "-exp", "array", "-scale", "0.001", "-"+tc.flag, tc.value)
			if code != 2 {
				t.Fatalf("exit status %d, want 2 (stderr: %q)", code, stderr)
			}
			if !strings.Contains(stderr, "-"+tc.flag+" must not be negative") {
				t.Fatalf("stderr does not name -%s: %q", tc.flag, stderr)
			}
		})
	}
	// Zero is every count flag's "use the default" value and stays valid.
	args := []string{"-list"}
	for _, f := range []string{"parallel", "batch-depth", "window-depth", "ssd-cache-mb", "shards", "replicas"} {
		args = append(args, "-"+f, "0")
	}
	if code, stderr := runMain(t, args...); code != 0 {
		t.Fatalf("zero counts: exit status %d (stderr: %q)", code, stderr)
	}
}

// TestRetiredFlagsRejected: -parallel sizes the shard layer and
// -ssd-cache-mb N turns the cache on, so -shard-parallel and a boolean
// -ssd-cache are not flags; naming one is a usage error, not a no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-shard-parallel", "4"},
		{"-ssd-cache"},
	} {
		code, stderr := runMain(t, append([]string{"-list"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit status %d, stderr %q; want 2 and an undefined-flag error", args, code, stderr)
		}
	}
}

// TestUnknownFormatFailsLoudly: -format accepts table or csv; anything
// else is a usage error naming the flag, not tables printed anyway.
func TestUnknownFormatFailsLoudly(t *testing.T) {
	code, stderr := runMain(t, "-list", "-format", "json")
	if code != 2 || !strings.Contains(stderr, "-format must be table or csv") {
		t.Fatalf("exit status %d, stderr %q; want 2 and a message naming -format", code, stderr)
	}
	for _, f := range []string{"table", "csv"} {
		if code, stderr := runMain(t, "-list", "-format", f); code != 0 {
			t.Errorf("-format %s: exit status %d (stderr: %q)", f, code, stderr)
		}
	}
}

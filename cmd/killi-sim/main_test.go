package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildSim builds the killi-sim binary into a temp dir.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "killi-sim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptedSweepStrandsNothing pins the shutdown story end to end: a
// SIGINT in the middle of a caching sweep must cancel the simulations,
// sweep every stranded simcache temp file, and exit nonzero — never report
// success or leave partial state for the next invocation to trip over.
func TestInterruptedSweepStrandsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and interrupts a real binary; skipped in -short")
	}
	bin := buildSim(t)
	cacheDir := t.TempDir()

	// Big enough that the sweep is still mid-simulation when the signal
	// lands a second in (one kernel alone runs for seconds at this trace
	// length), small enough that the post-signal kernel-boundary cancel
	// returns promptly.
	cmd := exec.Command(bin,
		"-fig", "4", "-workloads", "xsbench",
		"-requests", "200000", "-parallel", "2", "-cache", cacheDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("signalling: %v (did the sweep finish before the signal?)", err)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if err == nil {
			t.Fatalf("interrupted sweep exited 0; stderr:\n%s", stderr.String())
		} else if !errors.As(err, &exit) {
			t.Fatalf("waiting: %v", err)
		} else if code := exit.ExitCode(); code != 130 {
			t.Errorf("exit code %d, want 130; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("sweep did not exit within 60s of SIGINT; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", stderr.String())
	}

	temps, err := filepath.Glob(filepath.Join(cacheDir, "put-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Errorf("interrupted sweep stranded %d cache temp files: %v", len(temps), temps)
	}
}

// TestFlagValidation pins the fail-fast contract: nonsense flag
// combinations exit 2 with a one-line error before any simulation starts.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short")
	}
	bin := buildSim(t)
	ts := filepath.Join(t.TempDir(), "ts.jsonl")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"zero requests", []string{"-requests", "0"}},
		{"negative shards", []string{"-shards", "-3"}},
		{"zero parallel", []string{"-parallel", "0"}},
		{"oversubscribed", []string{"-parallel", "64", "-shards", "64"}},
		{"unknown figure", []string{"-fig", "6"}},
		// Every mode's run inputs pass one normalization.
		{"negative warmup", []string{"-warmup", "-1"}},
		{"negative warmup misclass", []string{"-misclass", "-warmup", "-1"}},
		{"negative warmup timeseries", []string{"-timeseries", ts, "-warmup", "-1"}},
		{"nan voltage", []string{"-voltage", "nan"}},
		{"nan voltage misclass", []string{"-misclass", "-voltage", "nan"}},
		{"nan voltage timeseries", []string{"-timeseries", ts, "-voltage", "nan"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%v: err %v, want exit code 2; stderr:\n%s", tc.args, err, stderr.String())
			}
			if msg := stderr.String(); strings.Count(msg, "\n") != 1 {
				t.Errorf("want a one-line error, got:\n%s", msg)
			}
		})
	}
}

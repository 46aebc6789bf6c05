package main

// End-to-end tests of the cached/restartable campaign lifecycle against the
// real binary and the real simulator: warm re-runs and kill-and-resume must
// reproduce an uninterrupted run's bytes exactly, an interrupted cached
// campaign must strand no cache temp files, and flag misuse must fail fast.

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

// buildFleet builds the killi-fleet binary into a temp dir.
func buildFleet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "killi-fleet")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// smallCampaign is a fast real-simulator campaign: every test in this file
// shares it so outputs are comparable across runs.
func smallCampaign(extra ...string) []string {
	args := []string{
		"-dies", "24", "-workloads", "xsbench", "-schemes", "killi-1:64",
		"-voltages", "0.600,0.625", "-requests", "200", "-format", "csv",
	}
	return append(args, extra...)
}

func runFleet(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("killi-fleet %v: %v\nstderr:\n%s", args, err, errBuf.String())
	}
	return outBuf.String(), errBuf.String()
}

// TestWarmRunByteIdentical pins the cached-campaign contract end to end: the
// second identical invocation against one cache dir reports every die as
// cached and writes byte-identical CSV.
func TestWarmRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real binary; skipped in -short")
	}
	bin := buildFleet(t)
	cacheDir := t.TempDir()

	cold, coldErr := runFleet(t, bin, smallCampaign("-cache", cacheDir, "-parallel", "2")...)
	if !strings.Contains(coldErr, "cached=0") {
		t.Errorf("cold run summary should report cached=0:\n%s", coldErr)
	}
	warm, warmErr := runFleet(t, bin, smallCampaign("-cache", cacheDir, "-parallel", "4")...)
	if warm != cold {
		t.Error("warm CSV differs from cold CSV")
	}
	if !strings.Contains(warmErr, "cached=24") {
		t.Errorf("warm run summary should report cached=24:\n%s", warmErr)
	}
}

// TestKillAndResumeMatchesUninterrupted pins the restart contract: a
// campaign SIGKILLed mid-run resumes from its checkpoint and produces the
// same bytes as a run that was never interrupted — even though SIGKILL can
// tear the checkpoint's final line. Robust to scheduling: whether the kill
// lands early (little to replay) or after completion (everything replays),
// byte-identity must hold.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary; skipped in -short")
	}
	bin := buildFleet(t)
	// Bigger than smallCampaign so the kill lands mid-run: ~300 dies take
	// several seconds at this trace length.
	campaign := func(extra ...string) []string {
		args := []string{
			"-dies", "300", "-workloads", "xsbench", "-schemes", "killi-1:64",
			"-voltages", "0.600,0.625", "-requests", "200", "-format", "csv",
		}
		return append(args, extra...)
	}
	ref, _ := runFleet(t, bin, campaign("-parallel", "2")...)

	ckptDir := t.TempDir()
	outFile := filepath.Join(t.TempDir(), "killed.csv")
	cmd := exec.Command(bin, campaign("-checkpoint", ckptDir, "-parallel", "2", "-o", outFile)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let some dies merge, then kill without ceremony. A 1s fuse usually
	// lands mid-run, and the test is correct whether it lands early (little
	// to replay) or after completion (everything replays).
	time.Sleep(1 * time.Second)
	_ = cmd.Process.Kill()
	_ = cmd.Wait()

	entries, err := filepath.Glob(filepath.Join(ckptDir, "campaign-*.jsonl"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one checkpoint file, got %v (err %v)", entries, err)
	}

	resumed, resumedErr := runFleet(t, bin, campaign("-checkpoint", ckptDir, "-resume", "-parallel", "4")...)
	if resumed != ref {
		t.Error("resumed CSV differs from uninterrupted run")
	}
	if !strings.Contains(resumedErr, "resumed=") {
		t.Errorf("resume summary missing resumed count:\n%s", resumedErr)
	}

	// A second resume replays the now-complete checkpoint outright.
	again, againErr := runFleet(t, bin, campaign("-checkpoint", ckptDir, "-resume", "-parallel", "1")...)
	if again != ref {
		t.Error("second resume differs from uninterrupted run")
	}
	if !strings.Contains(againErr, "resumed=300") {
		t.Errorf("complete-checkpoint resume should report resumed=300:\n%s", againErr)
	}
}

// TestInterruptedCachedCampaignStrandsNoTemps pins the SIGINT path: an
// aborted cached campaign exits 130 and sweeps every stranded simcache
// "put-*" temp file, like killi-sim's interrupted sweep.
func TestInterruptedCachedCampaignStrandsNoTemps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and interrupts a real binary; skipped in -short")
	}
	bin := buildFleet(t)
	cacheDir := t.TempDir()

	// Big enough to still be mid-campaign when the signal lands a second in.
	cmd := exec.Command(bin,
		"-dies", "5000", "-workloads", "xsbench", "-schemes", "killi-1:64",
		"-voltages", "0.600,0.625", "-requests", "200",
		"-parallel", "2", "-cache", cacheDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("signalling: %v (did the campaign finish before the signal?)", err)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if err == nil {
			t.Fatalf("interrupted campaign exited 0; stderr:\n%s", stderr.String())
		} else if !errors.As(err, &exit) {
			t.Fatalf("waiting: %v", err)
		} else if code := exit.ExitCode(); code != 130 {
			t.Errorf("exit code %d, want 130; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("campaign did not exit within 60s of SIGINT; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", stderr.String())
	}

	temps, err := filepath.Glob(filepath.Join(cacheDir, "put-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Errorf("interrupted campaign stranded %d cache temp files: %v", len(temps), temps)
	}
}

// TestResumeNeedsCheckpoint pins fail-fast flag validation for the new
// flags: -resume without -checkpoint exits 2 with a one-line error.
func TestResumeNeedsCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short")
	}
	bin := buildFleet(t)
	cmd := exec.Command(bin, "-resume")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-resume alone: err %v, want exit code 2; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); strings.Count(msg, "\n") != 1 {
		t.Errorf("want a one-line error, got:\n%s", msg)
	}
}

// TestNonFiniteThresholdFailsFast: a NaN or infinite -threshold exits 2
// with a one-line error before any die is simulated, instead of running a
// campaign whose yield criterion no result can be compared against.
func TestNonFiniteThresholdFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short")
	}
	bin := buildFleet(t)
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf"} {
		cmd := exec.Command(bin, smallCampaign("-threshold", v, "-format", "jsonl")...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-threshold %s: err %v, want exit code 2; stderr:\n%s", v, err, stderr.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "pass threshold") {
			t.Errorf("-threshold %s: want a one-line threshold error, got:\n%s", v, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-threshold %s: wrote output:\n%s", v, stdout.String())
		}
	}
}

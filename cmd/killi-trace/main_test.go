package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVoltageRejected pins that a voltage outside the fault model's
// (0, 2] x VDD range, NaN included, fails with a one-line error before any
// simulation instead of panicking inside the fault model.
func TestVoltageRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "killi-trace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	trace, err := exec.Command(bin, "-dump", "xsbench", "-requests", "20").Output()
	if err != nil {
		t.Fatalf("-dump: %v", err)
	}
	file := filepath.Join(dir, "xsbench.trace")
	if err := os.WriteFile(file, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"nan", "0", "-0.5", "2.5"} {
		cmd := exec.Command(bin, "-file", file, "-voltage", v)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-voltage %s: err %v, want exit code 1; stderr:\n%s", v, err, stderr.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "voltage") {
			t.Errorf("-voltage %s: want a one-line voltage error, got:\n%s", v, msg)
		}
	}
}

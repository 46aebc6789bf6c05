package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: missing or empty profile (%v)", p, err)
		}
	}
}

func TestStartProfilesEmptyPathsAreNoOps(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesReportsBadPaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := StartProfiles(bad, ""); err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("bad -cpuprofile path: err = %v", err)
	}
	stop, err := StartProfiles("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Fatalf("bad -memprofile path: err = %v", err)
	}
}

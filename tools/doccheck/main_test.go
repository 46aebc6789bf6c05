package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsUndocumentedPackage(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "good", "doc.go"), "// Package good is documented.\npackage good\n")
	write(t, filepath.Join(root, "good", "extra.go"), "package good\n")
	write(t, filepath.Join(root, "bad", "bad.go"), "package bad\n")
	write(t, filepath.Join(root, "bad", "bad_test.go"), "// Package bad — test files don't count.\npackage bad\n")
	write(t, filepath.Join(root, "exempt", "testdata", "t.go"), "package t\n")

	got, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != filepath.Join(root, "bad") {
		t.Fatalf("undocumented = %v, want only the bad package", got)
	}
}

func TestDocOnAnyFileSuffices(t *testing.T) {
	root := t.TempDir()
	// The doc comment lives on the second file, as with a dedicated doc.go.
	write(t, filepath.Join(root, "p", "impl.go"), "package p\n")
	write(t, filepath.Join(root, "p", "doc.go"), "// Package p is documented elsewhere.\npackage p\n")
	got, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("undocumented = %v, want none", got)
	}
}

// TestRepositoryIsFullyDocumented is the in-test mirror of the Makefile
// gate: every package in this repository must carry a doc comment.
func TestRepositoryIsFullyDocumented(t *testing.T) {
	got, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("undocumented packages: %v", got)
	}
}

// TestStaleFlagDetection pins the flag-reference check: a doc flag that no
// binary registers fails, also as a code span in parentheses; registered
// flags and allowlisted external-tool flags (go test's -benchtime among
// them) pass; mid-word dashes and a minus opening a parenthesised
// expression ("log1p(-p)") are never flag references.
func TestStaleFlagDetection(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "cmd", "tool", "main.go"), `// Command tool.
package main

import "flag"

func main() {
	_ = flag.String("alpha", "", "")
	var n int
	flag.IntVar(&n, "beta-count", 0, "")
	flag.Parse()
}
`)
	write(t, filepath.Join(root, "README.md"),
		"Use `-alpha` or -beta-count here.\n"+
			"go test -race -bench . is fine.\n"+
			"So is `go test -run '^$' -bench BenchmarkColdRun -benchmem -benchtime=10x ./internal/experiments`.\n"+
			"false-disable and 2e-08 are not flags.\n"+
			"Nor is the minus in log1p(-p) or exp(-x).\n"+
			"But -gamma was renamed long ago.\n"+
			"And (`-delta`) hides in parens.\n")

	stale, err := checkDocFlags(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %v, want exactly -gamma and -delta", stale)
	}
	for i, want := range []string{"-gamma", "-delta"} {
		if !strings.Contains(stale[i], want) || !strings.Contains(stale[i], "README.md:") {
			t.Errorf("stale[%d] = %q, want a README.md complaint about %s", i, stale[i], want)
		}
	}
}

// TestRepositoryFlagsAreReal is the in-test mirror of the Makefile gate:
// every flag the four doc files reference must be registered by a binary.
func TestRepositoryFlagsAreReal(t *testing.T) {
	stale, err := checkDocFlags("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("stale doc flags: %v", stale)
	}
}

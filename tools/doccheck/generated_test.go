package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A generated block is a fenced block in EXPERIMENTS.md that holds a
// deterministic command's stdout verbatim, announced by a marker line
// naming the command:
//
//	<!-- generated: go run ./cmd/killi-area -table 4 -->
//	```
//	# Table 4: ...
//	```
//
// TestGeneratedBlocks reruns every marked command and fails with a diff on
// any mismatch, so no number a generator prints is ever hand-copied.
// Trailing whitespace on each line, and trailing blank lines, are ignored.

// generatedDoc is the document whose generated blocks are checked.
const generatedDoc = "EXPERIMENTS.md"

// simulator's blocks simulate rather than compute closed forms, so -short
// skips them (its default Figure 4/5 sweep takes about 10 s on two cores).
// Every other generator prints in well under a second.
const simulator = "./cmd/killi-sim"

var (
	generatedMarker = regexp.MustCompile(`^<!-- generated: (.*) -->$`)
	generatedCmd    = regexp.MustCompile(`^go run (\./[\w./-]+)((?: [^\s"'` + "`" + `]+)*)$`)
)

// genBlock is one marked command and the output the document records.
type genBlock struct {
	line int // 1-based line of the block's first content line
	pkg  string
	args []string
	want string
}

func (b genBlock) String() string {
	return strings.TrimSpace("go run " + b.pkg + " " + strings.Join(b.args, " "))
}

// parseGenerated returns doc's generated blocks. A marker must name a
// `go run ./pkg args` command with plain (unquoted) arguments and be
// followed directly by a fenced block.
func parseGenerated(doc string) ([]genBlock, error) {
	lines := strings.Split(doc, "\n")
	var blocks []genBlock
	for i := 0; i < len(lines); i++ {
		m := generatedMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		c := generatedCmd.FindStringSubmatch(m[1])
		if c == nil {
			return nil, fmt.Errorf("line %d: marker command %q is not `go run ./pkg args`", i+1, m[1])
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "```") {
			return nil, fmt.Errorf("line %d: marker is not followed by a fenced block", i+1)
		}
		end := i + 2
		for end < len(lines) && lines[end] != "```" {
			end++
		}
		if end == len(lines) {
			return nil, fmt.Errorf("line %d: generated block is never closed", i+2)
		}
		blocks = append(blocks, genBlock{
			line: i + 3,
			pkg:  c[1],
			args: strings.Fields(c[2]),
			want: strings.Join(lines[i+2:end], "\n"),
		})
		i = end
	}
	return blocks, nil
}

// outputLines splits s into lines without trailing whitespace or trailing
// blank lines.
func outputLines(s string) []string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t\r")
	}
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// blockDiff lists, line by line, where the document's block (starting at
// document line first) differs from the command's output; "" means equal.
func blockDiff(first int, doc, out string) string {
	want, got := outputLines(doc), outputLines(out)
	var b strings.Builder
	for i := 0; i < max(len(want), len(got)); i++ {
		w, g := "(missing)", "(missing)"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			fmt.Fprintf(&b, "%s:%d\n  doc: %s\n  cmd: %s\n", generatedDoc, first+i, w, g)
		}
	}
	return b.String()
}

// trackSources reads every non-standard Go file the packages build from.
// The generators run as child processes, whose reads Go's test cache does
// not see; reading the sources here makes an edit to any of them rerun
// the test instead of replaying a cached pass.
func trackSources(t *testing.T, root string, pkgs []string) {
	t.Helper()
	args := append([]string{"list", "-deps", "-f",
		`{{if not .Standard}}{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}{{end}}`}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, f := range strings.Fields(string(out)) {
		if _, err := os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGeneratedBlocks reruns every generated block's command from the
// repository root and compares its stdout with the block.
func TestGeneratedBlocks(t *testing.T) {
	const root = "../.."
	doc, err := os.ReadFile(filepath.Join(root, generatedDoc))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := parseGenerated(string(doc))
	if err != nil {
		t.Fatalf("%s: %v", generatedDoc, err)
	}
	if len(blocks) == 0 {
		t.Fatalf("%s has no generated blocks", generatedDoc)
	}
	var run []genBlock
	var pkgs []string
	seen := map[string]bool{}
	for _, b := range blocks {
		if testing.Short() && b.pkg == simulator {
			continue
		}
		run = append(run, b)
		if !seen[b.pkg] {
			seen[b.pkg] = true
			pkgs = append(pkgs, b.pkg)
		}
	}
	if skipped := len(blocks) - len(run); skipped > 0 {
		t.Logf("-short: skipped %d simulated blocks", skipped)
	}
	if len(run) == 0 {
		return
	}
	trackSources(t, root, pkgs)
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, b := range run {
		cmd := exec.Command(filepath.Join(bin, filepath.Base(b.pkg)), b.args...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("%s (%s:%d): %v\n%s", b, generatedDoc, b.line, err, stderr.Bytes())
			continue
		}
		if d := blockDiff(b.line, b.want, string(out)); d != "" {
			t.Errorf("%s no longer prints the block at %s:%d; paste its output there:\n%s",
				b, generatedDoc, b.line, d)
		}
	}
}

// TestParseGenerated pins the marker grammar: a marker must name a
// `go run ./pkg args` command and open a closed fenced block.
func TestParseGenerated(t *testing.T) {
	good := "intro\n<!-- generated: go run ./cmd/tool -table 4 -->\n```\na  \nb\n```\n" +
		"<!-- generated: go run ./examples/demo -->\n```text\n```\n"
	blocks, err := parseGenerated(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if b := blocks[0]; b.line != 4 || b.pkg != "./cmd/tool" || strings.Join(b.args, " ") != "-table 4" || b.want != "a  \nb" {
		t.Errorf("block 0 = %+v", b)
	}
	if b := blocks[1]; b.pkg != "./examples/demo" || len(b.args) != 0 || b.want != "" {
		t.Errorf("block 1 = %+v", b)
	}
	for _, bad := range []string{
		"<!-- generated: ls -l -->\n```\n```\n",
		"<!-- generated: go run ./cmd/tool -w \"a b\" -->\n```\n```\n",
		"<!-- generated: go run ./cmd/tool -->\ntext\n",
		"<!-- generated: go run ./cmd/tool -->\n```\nnever closed\n",
	} {
		if _, err := parseGenerated(bad); err == nil {
			t.Errorf("parseGenerated(%q) should fail", bad)
		}
	}
	if d := blockDiff(10, "x \ny\n\n", "x\ny"); d != "" {
		t.Errorf("trailing whitespace should be ignored, got diff:\n%s", d)
	}
	if d := blockDiff(10, "x\ny", "x\nz"); !strings.Contains(d, generatedDoc+":11") {
		t.Errorf("diff should name the changed document line, got:\n%s", d)
	}
}

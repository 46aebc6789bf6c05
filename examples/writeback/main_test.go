package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunReproducible pins that the demo's report is a pure function of its
// seeds: two runs print identical bytes.
func TestRunReproducible(t *testing.T) {
	var first, second bytes.Buffer
	run(&first)
	run(&second)
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n----\n%s", first.String(), second.String())
	}
	if out := first.String(); !strings.Contains(out, "wb.corrected_reads") || strings.Contains(out, "SILENT CORRUPTION") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

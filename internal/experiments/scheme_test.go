package experiments

import (
	"os"
	"strings"
	"testing"

	"killi/internal/killi"
)

// schemeExamples holds one concrete, parseable name per scheme form in
// SchemeSyntax.
var schemeExamples = []string{
	"none", "secded", "dected", "flair", "msecc",
	"killi-1:64", "killi-dected-1:64", "killi-olsc2-1:64",
}

// TestSchemeExamplesParse feeds every documented scheme-name form through
// the parser, so SchemeSyntax can never advertise a grammar SchemeByName
// rejects.
func TestSchemeExamplesParse(t *testing.T) {
	for _, name := range schemeExamples {
		if _, err := SchemeByName(name); err != nil {
			t.Errorf("documented example %q does not parse: %v", name, err)
		}
	}
}

// TestSweepSchemeNamesParse round-trips the sweep catalog's names through
// SchemeByName: every name Run prints in its rows must be reconstructible
// from the CLI.
func TestSweepSchemeNamesParse(t *testing.T) {
	for _, spec := range Schemes() {
		if _, err := SchemeByName(spec.Name); err != nil {
			t.Errorf("sweep scheme %q does not parse: %v", spec.Name, err)
		}
	}
}

// TestSchemeSyntaxSingleSource pins the single-source-of-truth property:
// every alternative in the grammar string has a corresponding example, and
// README.md quotes the grammar verbatim rather than paraphrasing it.
func TestSchemeSyntaxSingleSource(t *testing.T) {
	syntax := SchemeSyntax()
	forms := strings.Split(syntax, " | ")
	if len(forms) != len(schemeExamples) {
		t.Fatalf("grammar lists %d forms but schemeExamples has %d entries", len(forms), len(schemeExamples))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	if !strings.Contains(string(readme), syntax) {
		t.Errorf("README.md does not quote SchemeSyntax() verbatim; update the scheme list there to:\n%s", syntax)
	}
}

func TestSchemeByNameRejectsMalformed(t *testing.T) {
	for _, name := range []string{
		"", "killi", "killi-", "killi-1:0", "killi-1:64x", "killi-2:64",
		"killi-olsc-1:64", "killi-olsc0-1:64", "killi-dected-1:",
		"secded ", "Killi-1:64",
		// Past t=11 an OLSC line code's checkbits outgrow an ECC entry.
		"killi-olsc12-1:64", "killi-olsc40-1:64", "killi-olsc1000000000000000000-1:64",
		"killi-olsc99999999999999999999-1:64",
		// One scheme, one spelling: no sign and no leading zero, so
		// equal simulations share job, cache and campaign keys.
		"killi-1:064", "killi-1:+64", "killi-1:-64", "killi-dected-1:064",
		"killi-olsc+5-1:64", "killi-olsc05-1:64", "killi-1: 64", "killi-1:6_4",
	} {
		if _, err := SchemeByName(name); err == nil {
			t.Errorf("SchemeByName(%q) should be an error", name)
		}
	}
}

// TestSchemeByNameOLSCStrengths pins the OLSC strength bound at its edge:
// t=11 (506 checkbits) parses, t=12 (552) is a one-line error.
func TestSchemeByNameOLSCStrengths(t *testing.T) {
	if _, err := SchemeByName("killi-olsc11-1:64"); err != nil {
		t.Fatalf("killi-olsc11-1:64: %v", err)
	}
	_, err := SchemeByName("killi-olsc12-1:64")
	if err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), "552 checkbits") {
		t.Fatalf("killi-olsc12-1:64: err = %v, want a one-line checkbit-budget error", err)
	}
}

// TestSchemesShareLineCodes pins build-once: after the first call, naming
// or building a Killi scheme builds no codec tables — only the scheme's
// own struct remains. A codec rebuilt per call costs from 9 allocations
// (SECDED's position map and tables) to thousands (OLSC's group lists).
func TestSchemesShareLineCodes(t *testing.T) {
	const maxAllocs = 2
	for name, build := range map[string]func(){
		"SchemeByName(killi-1:64)": func() {
			if _, err := SchemeByName("killi-1:64"); err != nil {
				t.Fatal(err)
			}
		},
		"killi.New(olsc2)": func() { killi.New(killi.Config{Ratio: 64, OLSCStrength: 2}) },
	} {
		build()
		allocs := testing.AllocsPerRun(10, build)
		t.Logf("%s: %.0f allocs/call", name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per call, want <= %d", name, allocs, maxAllocs)
		}
	}
}

// FuzzSchemeByName checks the scheme grammar on arbitrary names: parsing
// never panics, and every accepted Killi name is its scheme's own Name(),
// the one spelling its job, cache and campaign keys use.
func FuzzSchemeByName(f *testing.F) {
	for _, name := range append(schemeExamples, "killi-1:064", "killi-olsc05-1:64",
		"killi-olsc12-1:64", "killi-dected-1:+8", "killi-1:99999999999999999999") {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := SchemeByName(name)
		if err != nil {
			return
		}
		if strings.HasPrefix(name, "killi-") && s.Name() != name {
			t.Fatalf("SchemeByName(%q) builds %q", name, s.Name())
		}
	})
}

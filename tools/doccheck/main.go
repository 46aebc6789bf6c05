// doccheck is the documentation gate (`make doccheck`, part of tier-1). It
// fails (exit 1) when:
//
//   - any Go package in the repository lacks a package-level doc comment, or
//   - any of the top-level doc files (README.md, ARCHITECTURE.md, DESIGN.md,
//     EXPERIMENTS.md) references a CLI flag that no binary under cmd/
//     registers — the drift that appears when a flag is renamed but its
//     documentation is not.
//
// Its tests add a third gate, run by `go test ./tools/doccheck`: every
// generated block in EXPERIMENTS.md — a fenced block introduced by a
// `<!-- generated: go run ./cmd/… args -->` marker — must equal the marked
// command's stdout (see generated_test.go). The killi-sim blocks simulate,
// so -short skips them.
//
// A package is documented when at least one of its non-test files carries a
// doc comment on the package clause. Test-only packages (*_test) and
// testdata trees are exempt.
//
// Flag references are `-name` tokens (lowercase, possibly hyphenated,
// preceded by whitespace, a backtick, or a parenthesis) anywhere in a doc
// file; registered flags are collected by AST-walking every flag.String /
// flag.Bool / ...Var registration under cmd/ and tools/. Flags of standard
// tools that doc examples legitimately pass (-race, -bench, -run, curl -d,
// ...) are allowlisted.
//
// Usage:
//
//	go run ./tools/doccheck [root]
//
// root defaults to ".". The tool parses package clauses and comments only
// for the doc-comment check (fast; no type checking), and prints one line
// per violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	undocumented, err := run(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	stale, err := checkDocFlags(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	for _, dir := range undocumented {
		fmt.Printf("doccheck: package in %s has no package doc comment\n", dir)
	}
	for _, s := range stale {
		fmt.Printf("doccheck: %s\n", s)
	}
	if len(undocumented)+len(stale) > 0 {
		os.Exit(1)
	}
}

// docFiles are the top-level documents whose flag references must resolve.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}

// flagMethods are the flag-package registration calls whose first string
// argument names a flag. The Var variants put the name second, but it is
// still the first *string literal* argument, which is what collectFlags
// takes.
var flagMethods = map[string]bool{
	"Bool": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
	"TextVar": true, "Func": true,
}

// externalFlags are flags of tools outside this repository that doc
// examples legitimately pass: go test / go build and curl.
var externalFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "count": true, "cover": true,
	"coverprofile": true, "d": true, "h": true, "help": true, "json": true,
	"ldflags": true, "list": true, "race": true, "run": true, "short": true,
	"tags": true, "timeout": true, "v": true,
}

// flagToken matches a CLI-flag reference in prose or a code span: a dash at
// a word start — optionally opening an inline code span, which may itself
// follow "(" — followed by a lowercase flag name. Mid-word dashes
// ("false-disable", "2e-08"), a minus right after "(" in prose math
// ("log1p(-p)") and suffixes hanging off a closing backtick
// ("`Host`-attached") never match.
var flagToken = regexp.MustCompile("(?:(?:^|\\s)`?|\\(`)-([a-z][a-z0-9-]*)")

// collectFlags AST-walks every non-test Go file under root/cmd and
// root/tools and returns the set of registered flag names.
func collectFlags(root string) (map[string]bool, error) {
	flags := map[string]bool{}
	for _, sub := range []string{"cmd", "tools"} {
		dir := filepath.Join(root, sub)
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagMethods[sel.Sel.Name] {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						flags[strings.Trim(lit.Value, `"`)] = true
						break
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return flags, nil
}

// checkDocFlags returns one complaint per doc line referencing a flag that
// no binary registers.
func checkDocFlags(root string) ([]string, error) {
	flags, err := collectFlags(root)
	if err != nil {
		return nil, err
	}
	var stale []string
	for _, name := range docFiles {
		path := filepath.Join(root, name)
		buf, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				ref := m[1]
				if !flags[ref] && !externalFlags[ref] {
					stale = append(stale, fmt.Sprintf("%s:%d: flag -%s is not registered by any binary under cmd/ or tools/", name, i+1, ref))
				}
			}
		}
	}
	return stale, nil
}

// run returns the directories holding packages without a doc comment.
func run(root string) ([]string, error) {
	// dirs maps a directory to whether any of its non-test files documents
	// the package; presence with value false means Go files were seen but
	// no doc comment yet.
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			return nil
		}
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			dirs[dir] = true
		} else if _, ok := dirs[dir]; !ok {
			dirs[dir] = false
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var undocumented []string
	for dir, ok := range dirs {
		if !ok {
			undocumented = append(undocumented, dir)
		}
	}
	sort.Strings(undocumented)
	return undocumented, nil
}

// Package census keeps the shipped API what the binaries run: its test
// fails when an exported function or method under internal/ has no caller
// outside its own file in the non-test code of the root module or of
// perfbench.
package census

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed are the exported functions and methods kept without a caller
// elsewhere, each with its reason. Keys are "<package dir>.<Recv.>Name".
var allowed = map[string]string{
	"analytic.MaskedFaultSDCProb":      "the §5.6.2 masked-fault SDC prediction that ROADMAP item 3 compares campaign SDC counts against",
	"simserver.ValidationError.Unwrap": "implements the errors package's Unwrap interface, which errors.Is and errors.As call",
	"faultmodel.NewMapExplicit":        "builds explicit fault maps for the tests of five packages; Go shares no _test.go file across packages",
	"sram.Array.InjectPersistentFault": "the lifetime-fault injection port gpu's aging tests drive; Go shares no _test.go file across packages",
	"stats.Counters.Names":             "lists a run's nonzero counters for the golden digests of three packages' tests, and for Counters.String",
}

// TestEveryExportedFuncHasACaller is the census: a name-based search, so a
// name shared with any other referenced identifier counts as called.
// Interface methods count as called through their interface's declaration.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	type decl struct{ key, file string }
	var decls []decl
	usedIn := map[string]map[string]bool{} // identifier → files naming it
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if strings.HasPrefix(rel, "internal/") && fd.Name.IsExported() {
				decls = append(decls, decl{declKey(rel, fd), rel})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][rel] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	seen := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		called := false
		for file := range usedIn[name] {
			called = called || file != d.file
		}
		switch _, ok := allowed[d.key]; {
		case !called && !ok:
			uncalled = append(uncalled, d.key+" ("+d.file+")")
		case called && ok:
			t.Errorf("%s has a caller now: drop its allowlist entry", d.key)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s: no non-test file of the root module or perfbench names it; delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported function under internal/", key)
		}
	}
}

// declKey is "<package dir>.<Recv.>Name" for a function declared in file.
func declKey(file string, fd *ast.FuncDecl) string {
	pkg := filepath.Base(filepath.Dir(file))
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	recv := "?"
	if id, ok := typ.(*ast.Ident); ok {
		recv = id.Name
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

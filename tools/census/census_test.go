// Package census keeps the shipped API what the binaries run: its test
// fails when an exported function or method under internal/ has no caller
// outside its own file in the non-test code of the root module or of
// perfbench.
package census

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
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
	"stats.Counters.Names":             "lists a run's nonzero counters for the golden digests of three packages' tests, and for Counters.String",
	"engine.Sharded.Shards":            "the effective shard count the K-invariance tests of engine and gpu check placement against",
	"obs.Collector.Lines":              "the line count the observer tests of gpu and experiments check DFH populations against",
	"secded.Code.Encode":               "the vector SECDED encoder: reference codec of ecc's TestReadMatchesFullDecoder and of secded's own tests",
	"secded.Code.Decode":               "the vector SECDED decoder: reference codec of ecc's TestReadMatchesFullDecoder and of secded's own tests",
	"olsc.Code.Encode":                 "the allocating OLSC encoder: reference codec of ecc's TestReadMatchesFullDecoder and of olsc's own tests",
	"bitvec.Vector.Clone":              "copies codeword fixtures in the codec tests of bch, secded and olsc",
	"bitvec.Vector.SetBit":             "builds codeword fixtures in the codec tests of bch, secded and olsc",
	"bitvec.Line.Bit":                  "reads single cells in the tests of seven packages (sram, killi, parity, the codecs, analytic)",
	"xrand.Rand.Sample":                "draws distinct error positions in the codec tests of ecc, bch, secded, olsc, killi and analytic",
	"march.CMinus":                     "the real March C- MBIST pass: the reference protection's TestMarchCharacterizationEquivalentToOracle checks PerLine's oracle-built disable map against",
	"march.Result.FaultCount":          "reads a March C- pass's per-line fault count in protection's TestMarchCharacterizationEquivalentToOracle",
}

// module is the root module's path; perfbench's module, killi/perfbench,
// lives in the perfbench directory under the same prefix, so an import
// path maps onto the tree by dropping the prefix.
const module = "killi"

// TestEveryExportedFuncHasACaller is the census, on go/types: a function
// counts as called when a non-test file other than its own uses its
// *types.Func. A method also counts when it has the name and signature of
// an interface method that a call may reach it through: one the code uses,
// or one of an exported interface of a standard package the code imports
// (fmt.Stringer's String, which fmt calls), or error's Error.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	l := newLoader(filepath.Join("..", ".."))
	dirs, err := l.packageDirs()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := l.load(dir); err != nil {
			t.Fatal(err)
		}
	}

	type decl struct {
		key, file string
		fn        *types.Func
	}
	var decls []decl
	usedIn := map[*types.Func]map[string]bool{} // function → files using it
	var ifaceMethods []*types.Func              // interface methods the code uses
	for _, f := range l.files {
		rel := l.rel(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && strings.HasPrefix(rel, "internal/") && fd.Name.IsExported() {
				decls = append(decls, decl{declKey(rel, fd), rel, l.info.Defs[fd.Name].(*types.Func)})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := l.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if usedIn[fn] == nil {
				usedIn[fn] = map[string]bool{}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods = append(ifaceMethods, fn)
				}
			}
			usedIn[fn][rel] = true
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	ifaceMethods = append(ifaceMethods, l.stdInterfaceMethods()...)
	viaInterface := func(fn *types.Func) bool {
		if fn.Type().(*types.Signature).Recv() == nil {
			return false
		}
		for _, m := range ifaceMethods {
			if m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
				return true
			}
		}
		return false
	}

	seen := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		seen[d.key] = true
		called := viaInterface(d.fn)
		for file := range usedIn[d.fn] {
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
		t.Errorf("%s: no non-test file of the root module or perfbench uses it; delete it, move it into a _test.go file, or allowlist it with a reason", u)
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

// loader type-checks the tree's non-test packages from source into one
// types.Info, so an object has one *types.Func wherever it is used. The
// standard library comes from the compiler's source importer.
type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // by import path; nil while checking
	files []*ast.File
	info  *types.Info
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
}

// packageDirs lists, relative to the root, every directory holding a
// non-test Go file, skipping testdata and dot directories.
func (l *loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != l.root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		names, err := l.goFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			rel, _ := filepath.Rel(l.root, path)
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

// goFiles lists the non-test Go files of dir that the default build
// context selects.
func (l *loader) goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// load type-checks the package in dir (relative to the root), and first
// every package of the tree it imports.
func (l *loader) load(dir string) (*types.Package, error) {
	path := module
	if dir != "." {
		path += "/" + dir
	}
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("census: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil
	abs := filepath.Join(l.root, filepath.FromSlash(dir))
	names, err := l.goFiles(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("census: type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// stdInterfaceMethods returns the methods of error and of every exported
// interface type of the standard packages the tree imports directly.
func (l *loader) stdInterfaceMethods() []*types.Func {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, pkg := range l.pkgs {
		for _, imp := range pkg.Imports() {
			if seen[imp] || strings.HasPrefix(imp.Path(), module+"/") {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	var methods []*types.Func
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			methods = append(methods, iface.Method(i))
		}
	}
	return methods
}

// Import implements types.Importer: the tree's own packages through load,
// everything else through the standard library's source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return l.load(rest)
	}
	return l.std.Import(path)
}

// rel is file f's slash-separated path relative to the root.
func (l *loader) rel(f *ast.File) string {
	rel, _ := filepath.Rel(l.root, l.fset.File(f.Pos()).Name())
	return filepath.ToSlash(rel)
}
